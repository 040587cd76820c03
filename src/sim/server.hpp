#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "core/sync.hpp"
#include "sim/backend.hpp"

namespace qmpi::sim {

/// Widest register whose calls run on the calling thread (16 qubits is
/// 1 MiB of amplitudes). Wider registers hand their calls to the command
/// thread. bench/perf_qmpi.cpp's BM_SimServerCall series measures both
/// sides of this width.
inline constexpr std::size_t kInlineMaxQubits = 16;

/// Serialized access to a shared simulation Backend, after the paper's
/// prototype design (§6): "all ranks forward quantum operations to rank 0,
/// which then applies the operation to the state vector. Rank 0 runs a
/// separate thread that waits to receive gate operations to execute."
///
/// call() runs one closure over the Backend at a time, in arrival order,
/// and returns its result or rethrows its exception; this keeps the global
/// state a faithful representation of the distributed machine at every
/// step. Where the closure runs depends on the register width the last call
/// left behind:
///   - at most kInlineMaxQubits: on the calling rank's own thread, under
///     exec_mu_. A narrow op costs less than the queue, wake-up and future
///     a hand-off would add (a teleport ring's hundreds of small calls per
///     rotation were dominated by that hand-off).
///   - wider: queued to the command thread, which takes the same exec_mu_
///     around each op. For wide sweeps, callers that park on a future and
///     leave one thread to stream the state beat callers contending for
///     the lock themselves (a TFIM Trotter step at 18-20 qubits ran slower
///     with every inline variant tried).
/// Each rank has at most one call outstanding, so its calls keep program
/// order on either path.
///
/// The hosted backend is chosen at construction: the serial StateVector
/// (the paper's rank-0 bottleneck) or the ShardedStateVector, whose
/// per-worker slices are the first step toward true multi-rank
/// distribution. Both produce bit-identical results, so callers never care
/// which one runs their calls.
class SimServer {
 public:
  /// `num_threads` configures the backend's worker-lane count for its
  /// O(2^n) sweeps (see Backend::set_num_threads); whichever thread runs
  /// a call dispatches them. `num_shards` is only meaningful for
  /// BackendKind::kSharded.
  explicit SimServer(std::uint64_t seed = kDefaultSeed,
                     unsigned num_threads = 1,
                     BackendKind backend = BackendKind::kSerial,
                     unsigned num_shards = 1)
      : state_(make_backend(backend, seed, num_shards)),
        worker_([this] { run(); }) {
    state_->set_num_threads(num_threads);
  }

  ~SimServer() {
    {
      const qmpi::LockGuard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  /// Runs `fn(backend)` and returns its result; an exception thrown by fn
  /// reaches this caller and the server keeps serving.
  template <typename Fn>
  auto call(Fn&& fn) -> std::invoke_result_t<Fn, Backend&> {
    if (width_.load() <= kInlineMaxQubits) {
      return execute(fn);
    }
    return submit(std::forward<Fn>(fn)).get();
  }

  /// Which backend implementation this server hosts ("serial"/"sharded").
  const char* backend_name() const { return state_->name(); }

 private:
  /// Hands `fn(state)` to the command thread; the returned future carries
  /// fn's result (or exception).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn, Backend&>> {
    using R = std::invoke_result_t<Fn, Backend&>;
    auto task = std::make_shared<std::packaged_task<R(Backend&)>>(
        std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    {
      const qmpi::LockGuard lock(mutex_);
      queue_.emplace_back([task](Backend& sv) { (*task)(sv); });
    }
    cv_.notify_all();
    return future;
  }

  /// Runs `fn(state)` on this thread under exec_mu_ and publishes the width
  /// it leaves behind, also when fn throws.
  template <typename Fn>
  decltype(auto) execute(Fn& fn) {
    struct PublishWidth {
      SimServer& server;
      ~PublishWidth() { server.width_.store(server.state_->num_qubits()); }
    };
    const qmpi::LockGuard lock(exec_mu_);
    const PublishWidth publish{*this};
    return fn(*state_);
  }

  void run() {
    qmpi::UniqueLock lock(mutex_);
    for (;;) {
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping, and nothing left to run
      auto fn = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      execute(fn);
      lock.lock();
    }
  }

  /// Touched only under exec_mu_ after construction (name() is immutable).
  std::unique_ptr<Backend> state_;
  /// Serializes Backend calls from both paths. Taken with no other lock
  /// held; the Backend's own locks (ThreadPool, ClusterCache, ShardMesh)
  /// nest inside it.
  qmpi::Mutex exec_mu_{"SimServer::exec_mu"};
  /// state_->num_qubits() after the latest call; picks call()'s path. A
  /// stale read only picks the other path, which runs under exec_mu_ too.
  std::atomic<std::size_t> width_{0};
  /// Guards the command queue only; a leaf.
  qmpi::Mutex mutex_{"SimServer::mutex"};
  qmpi::CondVar cv_;
  std::deque<std::function<void(Backend&)>> queue_ QMPI_GUARDED_BY(mutex_);
  bool stopping_ QMPI_GUARDED_BY(mutex_) = false;
  std::thread worker_;
};

}  // namespace qmpi::sim
