#pragma once

/// \file job_service.hpp
/// The multi-tenant job service behind qmpid: one resident process hosts
/// many concurrent quantum sessions, each with its own Backend (own seeded
/// RNG, own qubit namespace, own epoch), admitted against a shared memory
/// budget and fair-scheduled onto a shared executor pool.
///
/// Layering: protocol constants live in service/protocol.hpp, the frame
/// grammar in classical/wire.hpp, and op execution is delegated to
/// core/sim_wire.hpp's apply_sim_request — the service adds tenancy
/// (admission, isolation, fairness, teardown) around the existing
/// single-tenant execution path rather than re-encoding any op.
/// See docs/ARCHITECTURE.md §9.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classical/wire.hpp"
#include "core/sync.hpp"
#include "service/protocol.hpp"
#include "sim/backend.hpp"
#include "sim/circuit_cache.hpp"

namespace qmpi::service {

/// Service-wide knobs. Defaults are deliberately small-machine-safe;
/// from_env() overlays the QMPI_* environment contract used by qmpid.
struct ServiceConfig {
  /// TCP port to listen on; 0 picks an ephemeral port (tests).
  std::uint16_t port = 0;

  /// Concurrent-session cap (QMPI_MAX_SESSIONS). Opens beyond it queue
  /// FIFO — slot exhaustion is a wait, not a failure.
  std::size_t max_sessions = 8;

  /// Total amplitude memory across all resident sessions, in bytes
  /// (QMPI_MEM_BUDGET). A session with max_qubits = n reserves exactly
  /// 2^n amplitudes (16 bytes each) for its lifetime; an open whose
  /// reservation can never fit is rejected with AdmissionError, one that
  /// merely doesn't fit *now* queues until memory frees.
  std::uint64_t mem_budget_bytes = 1ull << 30;

  /// Entry cap of the shared compiled-cluster cache (QMPI_CIRCUIT_CACHE);
  /// 0 disables caching. All sessions share one cache: compilation is a
  /// pure function of circuit content, so a hit from another tenant's
  /// identical cluster is always a correct replay.
  std::size_t circuit_cache_entries = sim::kDefaultCircuitCacheEntries;

  /// Executor threads draining session command queues round-robin;
  /// 0 = one per hardware thread (capped at 8).
  unsigned executors = 0;

  /// Reads QMPI_MAX_SESSIONS / QMPI_MEM_BUDGET / QMPI_CIRCUIT_CACHE /
  /// QMPI_SERVICE_EXECUTORS over the defaults above. Malformed values
  /// throw classical::QmpiError naming the variable.
  static ServiceConfig from_env();
};

/// Monotonic counters for tests, the qmpid status line, and the bench.
struct ServiceStats {
  std::uint64_t admitted = 0;         ///< sessions accepted
  std::uint64_t rejected = 0;         ///< opens refused (admission+protocol)
  std::uint64_t queued_admissions = 0;///< opens that had to wait for capacity
  std::size_t active_sessions = 0;    ///< currently resident sessions
  std::uint64_t reserved_amps = 0;    ///< amplitudes reserved right now
  std::uint64_t forged_dropped = 0;   ///< frames with a foreign (session,
                                      ///< epoch) stamp, dropped on arrival
  std::uint64_t ops_executed = 0;     ///< quantum ops run across all sessions
  std::uint64_t cache_hits = 0;       ///< shared cluster-cache counters
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t connection_threads = 0; ///< held: live connections plus ended
                                      ///< ones the next accept will join
};

/// The resident job service. start() binds the port and spawns the accept
/// loop plus the executor pool; stop() (or the destructor) tears every
/// session down and joins all threads. One connection == one session:
/// admission happens at kSvcOpen, and the connection's reader validates
/// every subsequent frame's (session id, epoch) stamp against the session
/// it admitted — a frame forged for another tenant is counted and dropped
/// without ever touching a backend.
///
/// Fairness: each session owns a FIFO command queue; executors repeatedly
/// pick the next non-busy session after a rotating cursor and run exactly
/// one command (one kSvcCall op or one kSvcBatch of gates) before moving
/// on, so an op-dense tenant cannot starve the others between O(2^n)
/// sweeps. At most one executor runs a given session at a time — each
/// Backend runs one call at a time, as SimServer's exec_mu guarantees
/// in-process.
class JobService {
 public:
  explicit JobService(ServiceConfig config = {});
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Binds the listen port and starts serving. Throws classical::QmpiError
  /// if the port cannot be bound.
  void start();

  /// Stops accepting, severs every session connection, drains in-flight
  /// commands, and joins all service threads. Idempotent.
  void stop();

  /// Bound port (valid after start(); with config.port == 0 this is the
  /// kernel-assigned ephemeral port).
  std::uint16_t port() const { return port_; }

  /// Total amplitude budget (mem_budget_bytes / 16).
  std::uint64_t budget_amps() const { return budget_amps_; }

  ServiceStats stats() const;

 private:
  /// One queued unit of work: a reply-producing kSvcCall op (req_id != 0)
  /// or a one-way kSvcBatch body (is_batch). `body` is fed verbatim to
  /// apply_sim_request.
  struct Command {
    std::uint64_t req_id = 0;
    bool is_batch = false;
    std::uint32_t op_count = 1;
    std::vector<std::byte> body;
  };

  struct Session {
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;
    int fd = -1;
    /// Serializes frames to this client. Leaf lock: taken by executors and
    /// the reader with no other lock held (never under JobService::mu_).
    qmpi::Mutex write_mu{"JobService::Session::write_mu"};
    std::unique_ptr<sim::Backend> backend;  ///< owning executor only (busy)
    unsigned max_qubits = 0;
    std::uint64_t reserved_amps = 0;
    // The fields below are guarded by JobService::mu_ (a nested struct
    // cannot spell QMPI_GUARDED_BY on the outer instance's member) —
    // except broken/broken_reason/ops_executed, which only the single
    // executor holding `busy` touches.
    std::deque<Command> pending;  ///< guarded by JobService::mu_
    bool busy = false;            ///< an executor is running a command
    bool dead = false;            ///< torn down; executors must skip it
    bool broken = false;          ///< a batch op failed; error latched
    std::string broken_reason;
    std::uint64_t ops_executed = 0;
  };

  void accept_loop();
  void serve_connection(int fd);

  /// Admission control for one kSvcOpen. Returns the admitted session
  /// (already registered and kSvcAccept'ed), or null after sending the
  /// appropriate kSvcReject.
  std::shared_ptr<Session> admit(int fd, std::uint64_t req_id,
                                 std::uint64_t seed, std::uint8_t backend_kind,
                                 std::uint32_t num_shards,
                                 std::uint32_t sim_threads,
                                 std::uint32_t max_qubits);

  /// Releases a session's backend-pool slot and memory reservation after
  /// draining (orderly close) or discarding (disconnect) its queue, then
  /// wakes queued admissions. Safe against a command still executing: it
  /// waits for the executor to finish the in-flight op first.
  void teardown(const std::shared_ptr<Session>& session);

  void executor_loop();
  void execute(const std::shared_ptr<Session>& session, Command cmd);

  void send_frame(const std::shared_ptr<Session>& session,
                  classical::FrameType type,
                  std::span<const std::byte> body) noexcept;

  ServiceConfig config_;
  std::uint64_t budget_amps_ = 0;
  std::shared_ptr<sim::ClusterCache> cache_;  ///< null when caching is off

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> executors_;
  std::vector<std::thread> conn_threads_ QMPI_GUARDED_BY(mu_);
  /// Connection threads that returned and await a join by accept_loop().
  std::vector<std::thread::id> finished_conns_ QMPI_GUARDED_BY(mu_);
  bool started_ = false;

  /// Guards all mutable session/queue state below. Top of the service
  /// hierarchy: ordered before ClusterCache::mu (stats() reads the cache
  /// counters under mu_; cross-class QMPI_ACQUIRED_BEFORE is not
  /// expressible, so the runtime lock-order validator enforces it), and
  /// never held while sending frames (Session::write_mu) or sweeping a
  /// backend (ThreadPool locks).
  mutable qmpi::Mutex mu_{"JobService::mu"};
  qmpi::CondVar work_cv_;   ///< pending work / busy-flag changes
  qmpi::CondVar admit_cv_;  ///< capacity released / FIFO advances
  bool stopping_ QMPI_GUARDED_BY(mu_) = false;
  /// Admission order.
  std::vector<std::shared_ptr<Session>> sessions_ QMPI_GUARDED_BY(mu_);
  /// Round-robin scheduling position.
  std::size_t cursor_ QMPI_GUARDED_BY(mu_) = 0;
  /// FIFO tickets awaiting capacity.
  std::deque<std::uint64_t> admit_queue_ QMPI_GUARDED_BY(mu_);
  std::uint64_t next_ticket_ QMPI_GUARDED_BY(mu_) = 1;
  std::uint64_t next_session_ QMPI_GUARDED_BY(mu_) = 1;
  std::uint64_t next_epoch_ QMPI_GUARDED_BY(mu_) = 1;
  std::uint64_t reserved_amps_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t admitted_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t queued_admissions_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t forged_dropped_ QMPI_GUARDED_BY(mu_) = 0;
  std::uint64_t ops_executed_ QMPI_GUARDED_BY(mu_) = 0;
};

}  // namespace qmpi::service
