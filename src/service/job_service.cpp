#include "service/job_service.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

#include "classical/error.hpp"
#include "classical/socket_transport.hpp"
#include "core/env.hpp"
#include "core/sim_wire.hpp"
#include "sim/thread_pool.hpp"

namespace qmpi::service {

using classical::FrameType;
using qmpi::QmpiError;
using classical::WireReader;
using classical::WireWriter;

namespace {

/// Amplitudes are 16 bytes (two doubles); the admission predicate works in
/// amplitude units so the reject frame can name the budget in the same
/// currency the user reasons in (2^n amplitudes for an n-qubit session).
constexpr std::uint64_t kBytesPerAmp = sizeof(sim::Complex);

/// Sessions above 62 qubits would overflow the 2^n reservation arithmetic;
/// no budget this service can express admits them anyway.
constexpr std::uint32_t kMaxSessionQubits = 62;

}  // namespace

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig cfg;
  if (const char* text = env::get("QMPI_MAX_SESSIONS")) {
    cfg.max_sessions = static_cast<std::size_t>(env::parse_env_number(
        "QMPI_MAX_SESSIONS", text, /*allow_zero=*/false, 1u << 16));
  }
  if (const char* text = env::get("QMPI_MEM_BUDGET")) {
    cfg.mem_budget_bytes =
        env::parse_env_number("QMPI_MEM_BUDGET", text, /*allow_zero=*/false);
  }
  if (const char* text = env::get("QMPI_CIRCUIT_CACHE")) {
    const std::string_view v(text);
    if (v == "on") {
      cfg.circuit_cache_entries = sim::kDefaultCircuitCacheEntries;
    } else if (v == "off") {
      cfg.circuit_cache_entries = 0;
    } else {
      // An explicit size must be positive; disabling is spelled "off".
      cfg.circuit_cache_entries = static_cast<std::size_t>(
          env::parse_env_number("QMPI_CIRCUIT_CACHE", text,
                                /*allow_zero=*/false, 1u << 24));
    }
  }
  if (const char* text = env::get("QMPI_SERVICE_EXECUTORS")) {
    cfg.executors = static_cast<unsigned>(env::parse_env_number(
        "QMPI_SERVICE_EXECUTORS", text, /*allow_zero=*/false, 256));
  }
  return cfg;
}

JobService::JobService(ServiceConfig config)
    : config_(config), budget_amps_(config.mem_budget_bytes / kBytesPerAmp) {
  if (config_.circuit_cache_entries > 0) {
    cache_ = std::make_shared<sim::ClusterCache>(config_.circuit_cache_entries);
  }
}

JobService::~JobService() { stop(); }

void JobService::start() {
  listen_fd_ = classical::net::listen_tcp(
      config_.port, /*backlog=*/static_cast<int>(config_.max_sessions) + 16,
      "qmpid", port_);
  unsigned n = config_.executors;
  if (n == 0) {
    n = std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  }
  executors_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void JobService::stop() {
  {
    const qmpi::LockGuard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Sever every live session so blocked readers wake with EOF and run
    // their own teardown; queued admissions wake to a shutdown reject.
    for (const auto& s : sessions_) ::shutdown(s->fd, SHUT_RDWR);
    work_cv_.notify_all();
    admit_cv_.notify_all();
  }
  // shutdown() wakes the blocked accept(); the fd is closed and cleared
  // only after the accept thread, which reads it, has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> conns;
  {
    const qmpi::LockGuard lock(mu_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
}

ServiceStats JobService::stats() const {
  const qmpi::LockGuard lock(mu_);
  ServiceStats s;
  s.admitted = admitted_;
  s.rejected = rejected_;
  s.queued_admissions = queued_admissions_;
  s.active_sessions = sessions_.size();
  s.reserved_amps = reserved_amps_;
  s.forged_dropped = forged_dropped_;
  s.ops_executed = ops_executed_;
  s.connection_threads = conn_threads_.size();
  if (cache_) {
    s.cache_hits = cache_->hits();
    s.cache_misses = cache_->misses();
    s.cache_evictions = cache_->evictions();
  }
  return s;
}

// ---------------------------------------------------------------- accept ---

void JobService::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd shut down by stop()
    }
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    std::vector<std::thread> finished;
    {
      const qmpi::LockGuard lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      // Reap the connections that ended since the last accept, so a
      // resident service keeps one thread (and stack) per live connection
      // rather than one per connection it ever served.
      const std::vector<std::thread::id>& ended = finished_conns_;
      const auto done = std::partition(
          conn_threads_.begin(), conn_threads_.end(),
          [&ended](const std::thread& t) {
            return std::find(ended.begin(), ended.end(), t.get_id()) ==
                   ended.end();
          });
      finished.assign(std::make_move_iterator(done),
                      std::make_move_iterator(conn_threads_.end()));
      conn_threads_.erase(done, conn_threads_.end());
      finished_conns_.clear();
      conn_threads_.emplace_back([this, fd] {
        serve_connection(fd);
        const qmpi::LockGuard done_lock(mu_);
        finished_conns_.push_back(std::this_thread::get_id());
      });
    }
    for (std::thread& t : finished) t.join();
  }
}

void JobService::send_frame(const std::shared_ptr<Session>& session,
                            FrameType type,
                            std::span<const std::byte> body) noexcept {
  // A dead client socket is the reader thread's problem (it sees EOF and
  // tears the session down); the executor must not die on a failed reply.
  try {
    const qmpi::LockGuard lock(session->write_mu);
    classical::write_frame(session->fd, type, body);
  } catch (const QmpiError&) {
  }
}

namespace {

void send_reject(int fd, std::uint64_t req_id, RejectKind kind,
                 std::uint64_t requested_amps, std::uint64_t available_amps,
                 const std::string& reason) noexcept {
  try {
    WireWriter w;
    w.u64(req_id);
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(requested_amps);
    w.u64(available_amps);
    w.str(reason);
    classical::write_frame(fd, FrameType::kSvcReject, w.data());
  } catch (const QmpiError&) {
  }
}

}  // namespace

// ------------------------------------------------------------- admission ---

std::shared_ptr<JobService::Session> JobService::admit(
    int fd, std::uint64_t req_id, std::uint64_t seed, std::uint8_t backend_kind,
    std::uint32_t num_shards, std::uint32_t sim_threads,
    std::uint32_t max_qubits) {
  const auto protocol_reject = [&](const std::string& reason) {
    {
      const qmpi::LockGuard lock(mu_);
      ++rejected_;
    }
    send_reject(fd, req_id, RejectKind::kProtocol, 0, budget_amps_, reason);
    return nullptr;
  };

  if (backend_kind != static_cast<std::uint8_t>(sim::BackendKind::kSerial) &&
      backend_kind != static_cast<std::uint8_t>(sim::BackendKind::kSharded)) {
    return protocol_reject("session backend must be serial or sharded");
  }
  if (max_qubits == 0 || max_qubits > kMaxSessionQubits) {
    return protocol_reject("session max_qubits must be in [1, " +
                           std::to_string(kMaxSessionQubits) + "], got " +
                           std::to_string(max_qubits));
  }

  const std::uint64_t requested = 1ull << max_qubits;
  qmpi::UniqueLock lock(mu_);
  if (requested > budget_amps_) {
    // Fail fast with the typed admission error: this reservation can NEVER
    // fit, so queueing would deadlock the client. 2^n amplitudes is an
    // exact predictor of the session's peak footprint, which is what lets
    // the service refuse here instead of OOMing mid-sweep later.
    ++rejected_;
    lock.unlock();
    send_reject(fd, req_id, RejectKind::kAdmission, requested, budget_amps_,
                "admission denied: session needs " + std::to_string(requested) +
                    " amplitudes (2^" + std::to_string(max_qubits) +
                    "), service budget is " + std::to_string(budget_amps_) +
                    " amplitudes (QMPI_MEM_BUDGET)");
    return nullptr;
  }

  // The reservation fits the service, just maybe not *right now*: queue
  // FIFO behind earlier opens until a slot and enough amplitudes free up.
  const std::uint64_t ticket = next_ticket_++;
  admit_queue_.push_back(ticket);
  bool waited = false;
  while (!stopping_ &&
         !(admit_queue_.front() == ticket &&
           sessions_.size() < config_.max_sessions &&
           reserved_amps_ + requested <= budget_amps_)) {
    waited = true;
    admit_cv_.wait(lock);
  }
  if (stopping_) {
    admit_queue_.erase(
        std::find(admit_queue_.begin(), admit_queue_.end(), ticket));
    ++rejected_;
    admit_cv_.notify_all();
    lock.unlock();
    send_reject(fd, req_id, RejectKind::kProtocol, requested, budget_amps_,
                "service shutting down");
    return nullptr;
  }
  admit_queue_.pop_front();
  if (waited) ++queued_admissions_;
  admit_cv_.notify_all();  // let the next ticket re-evaluate its predicate

  auto session = std::make_shared<Session>();
  session->id = next_session_++;
  session->epoch = next_epoch_++;
  session->fd = fd;
  session->max_qubits = max_qubits;
  session->reserved_amps = requested;
  try {
    session->backend = sim::make_backend(
        static_cast<sim::BackendKind>(backend_kind), seed,
        std::max(1u, num_shards));
  } catch (const sim::SimulatorError& e) {
    ++rejected_;
    admit_cv_.notify_all();
    lock.unlock();
    send_reject(fd, req_id, RejectKind::kProtocol, requested, budget_amps_,
                std::string("backend construction failed: ") + e.what());
    return nullptr;
  }
  session->backend->set_num_threads(std::min<std::uint32_t>(
      sim_threads, static_cast<std::uint32_t>(sim::ThreadPool::kMaxLanes)));
  if (cache_) session->backend->set_cluster_cache(cache_);

  sessions_.push_back(session);
  reserved_amps_ += requested;
  ++admitted_;
  lock.unlock();

  WireWriter w;
  w.u64(req_id);
  w.u64(session->id);
  w.u64(session->epoch);
  send_frame(session, FrameType::kSvcAccept, w.data());
  return session;
}

void JobService::teardown(const std::shared_ptr<Session>& session) {
  qmpi::UniqueLock lock(mu_);
  if (session->dead) return;
  session->dead = true;
  session->pending.clear();
  // An executor may be mid-sweep on this backend; wait it out so the
  // Backend is never destroyed under a running command.
  while (session->busy) work_cv_.wait(lock);
  sessions_.erase(std::find(sessions_.begin(), sessions_.end(), session));
  if (cursor_ >= sessions_.size()) cursor_ = 0;
  reserved_amps_ -= session->reserved_amps;
  // Releasing the slot and the amplitudes is what un-blocks queued
  // admissions — the disconnect-teardown regression test pivots on this.
  admit_cv_.notify_all();
  work_cv_.notify_all();
}

// ------------------------------------------------------------ connection ---

void JobService::serve_connection(int fd) {
  std::shared_ptr<Session> session;
  try {
    classical::Frame open = classical::read_frame(fd);
    if (open.type != FrameType::kSvcOpen) {
      ::close(fd);
      return;
    }
    WireReader r(open.body);
    const std::uint64_t req_id = r.u64();
    const std::uint32_t magic = r.u32();
    const std::uint16_t version = r.u16();
    if (magic != kSvcMagic || version != kSvcVersion) {
      send_reject(fd, req_id, RejectKind::kProtocol, 0, budget_amps_,
                  "bad magic/version in session open (is this a qmpid "
                  "client?)");
      ::close(fd);
      return;
    }
    const std::uint64_t seed = r.u64();
    const std::uint8_t backend_kind = r.u8();
    const std::uint32_t num_shards = r.u32();
    const std::uint32_t sim_threads = r.u32();
    const std::uint32_t max_qubits = r.u32();
    session = admit(fd, req_id, seed, backend_kind, num_shards, sim_threads,
                    max_qubits);
    if (!session) {
      ::close(fd);
      return;
    }

    while (true) {
      classical::Frame frame = classical::read_frame(fd);
      if (frame.type == FrameType::kSvcCall ||
          frame.type == FrameType::kSvcBatch ||
          frame.type == FrameType::kSvcClose) {
        WireReader body(frame.body);
        const std::uint64_t req =
            frame.type == FrameType::kSvcBatch ? 0 : body.u64();
        const std::uint64_t sid = body.u64();
        const std::uint64_t epoch = body.u64();
        if (sid != session->id || epoch != session->epoch) {
          // The isolation property: a frame stamped for another tenant
          // (or a stale epoch) is dropped here, before any backend or
          // queue is touched. Counted so tests can assert the drop.
          const qmpi::LockGuard lock(mu_);
          ++forged_dropped_;
          continue;
        }
        if (frame.type == FrameType::kSvcClose) {
          // Orderly close: drain everything already queued, then ack with
          // the session's op count and release its reservations.
          qmpi::UniqueLock lock(mu_);
          while (!stopping_ &&
                 (!session->pending.empty() || session->busy)) {
            work_cv_.wait(lock);
          }
          const std::uint64_t ops = session->ops_executed;
          lock.unlock();
          WireWriter w;
          w.u64(req);
          w.u64(ops);
          send_frame(session, FrameType::kSvcClosed, w.data());
          break;
        }
        Command cmd;
        cmd.req_id = req;
        cmd.is_batch = frame.type == FrameType::kSvcBatch;
        const std::span<const std::byte> rest = body.rest();
        cmd.body.assign(rest.begin(), rest.end());
        if (cmd.is_batch) {
          // kBatch body layout: u8 opcode, u32 op count, encoded ops.
          WireReader peek(cmd.body);
          if (peek.remaining() < 5 ||
              peek.u8() != static_cast<std::uint8_t>(SimOp::kBatch)) {
            const qmpi::LockGuard lock(mu_);
            ++forged_dropped_;
            continue;
          }
          cmd.op_count = peek.u32();
        }
        {
          const qmpi::LockGuard lock(mu_);
          if (!session->dead) {
            session->pending.push_back(std::move(cmd));
            work_cv_.notify_all();
          }
        }
        continue;
      }
      // Unknown or out-of-place frame type: ignore (future client talking
      // a newer minor revision must not kill the session).
    }
  } catch (const QmpiError&) {
    // EOF or a mid-frame death: the client vanished. Fall through to the
    // teardown below — the session's slot and memory MUST be released or
    // the service slowly leaks capacity (the regression this PR fixes by
    // construction).
  }
  if (session) teardown(session);
  ::close(fd);
}

// -------------------------------------------------------------- executors ---

void JobService::executor_loop() {
  while (true) {
    qmpi::UniqueLock lock(mu_);
    std::shared_ptr<Session> picked;
    for (;;) {
      if (stopping_) return;
      // Fair pick: scan from the rotating cursor so each session gets one
      // command per pass, regardless of how fast any one tenant enqueues.
      const std::size_t n = sessions_.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t idx = (cursor_ + i) % n;
        const auto& s = sessions_[idx];
        if (!s->dead && !s->busy && !s->pending.empty()) {
          picked = s;
          cursor_ = (idx + 1) % n;
          break;
        }
      }
      if (picked) break;
      work_cv_.wait(lock);
    }
    Command cmd = std::move(picked->pending.front());
    picked->pending.pop_front();
    picked->busy = true;
    lock.unlock();

    execute(picked, std::move(cmd));

    lock.lock();
    picked->busy = false;
    // Wakes peers three ways: executors (more of this session's queue),
    // the reader draining an orderly close, and teardown waiting !busy.
    work_cv_.notify_all();
  }
}

void JobService::execute(const std::shared_ptr<Session>& session,
                         Command cmd) {
  if (session->broken) {
    // A batched gate failed earlier; the op stream is broken for good,
    // exactly like the hub's latched sim failure. Calls get the latched
    // error (so the client's next sync point throws); batches are noise.
    if (!cmd.is_batch) {
      WireWriter w;
      w.u64(cmd.req_id);
      w.str(session->broken_reason);
      send_frame(session, FrameType::kSvcError, w.data());
    }
    return;
  }
  try {
    // The admission predicate only holds if no session can outgrow what
    // it reserved: gate allocations against the admitted ceiling.
    if (!cmd.is_batch && !cmd.body.empty() &&
        cmd.body.front() ==
            static_cast<std::byte>(static_cast<std::uint8_t>(SimOp::kAllocate))) {
      WireReader peek(cmd.body);
      peek.u8();
      const std::uint64_t count = peek.u64();
      const std::uint64_t live = session->backend->num_qubits();
      if (count > session->max_qubits - live) {
        throw sim::SimulatorError(
            "allocation of " + std::to_string(count) +
            " qubit(s) would exceed this session's admitted ceiling of " +
            std::to_string(session->max_qubits) + " (currently " +
            std::to_string(live) + " live); reopen with a larger max_qubits");
      }
    }
    const std::vector<std::byte> reply =
        apply_sim_request(*session->backend, cmd.body);
    {
      const qmpi::LockGuard lock(mu_);
      ops_executed_ += cmd.op_count;
      session->ops_executed += cmd.op_count;
    }
    if (!cmd.is_batch) {
      WireWriter w;
      w.u64(cmd.req_id);
      w.bytes(reply);
      send_frame(session, FrameType::kSvcResult, w.data());
    }
  } catch (const sim::SimulatorError& e) {
    WireWriter w;
    if (cmd.is_batch) {
      session->broken = true;
      session->broken_reason = e.what();
      w.u64(0);  // req id 0 = deferred one-way failure
    } else {
      w.u64(cmd.req_id);
    }
    w.str(e.what());
    send_frame(session, FrameType::kSvcError, w.data());
  }
}

}  // namespace qmpi::service
