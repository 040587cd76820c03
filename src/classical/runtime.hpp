#pragma once

#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "classical/comm.hpp"
#include "classical/universe.hpp"

namespace qmpi::classical {

/// Threads-as-ranks job harness.
///
/// `Runtime::run(n, fn)` plays the role of `mpirun -np n`: it creates a
/// Universe, spawns one thread per rank, hands each a world Comm, joins all
/// threads, and rethrows the first rank failure (after shutting the universe
/// down so no peer deadlocks waiting for the dead rank). The Transport
/// overload does the same for the ranks any transport hosts in this
/// process, which is how the multi-process job launches its local block.
class Runtime {
 public:
  using RankFn = std::function<void(Comm&)>;

  /// Runs `fn` on `world_size` rank threads; blocks until all finish.
  /// Rethrows the first exception thrown by any rank.
  static void run(int world_size, const RankFn& fn) {
    Universe universe(world_size);
    run(universe, fn);
  }

  /// Runs `fn` on one thread per rank in `transport.local_ranks()`; blocks
  /// until all finish. When a rank throws, `transport.fail("rank N failed:
  /// <what>")` wakes every rank blocked on it, so the job fails fast
  /// instead of deadlocking. Rethrows the root-cause exception.
  static void run(Transport& transport, const RankFn& fn) {
    const RankBlock block = transport.local_ranks();
    const auto n = static_cast<std::size_t>(block.count);
    std::vector<std::thread> threads;
    threads.reserve(n);
    std::vector<std::exception_ptr> errors(n);

    for (int i = 0; i < block.count; ++i) {
      threads.emplace_back([&, i]() {
        const int rank = block.first + i;
        auto& error = errors[static_cast<std::size_t>(i)];
        std::string detail;
        try {
          Comm comm = Comm::world(transport, rank);
          fn(comm);
          return;
        } catch (const std::exception& e) {
          error = std::current_exception();
          detail = std::string(": ") + e.what();
        } catch (...) {
          error = std::current_exception();
          detail = " with an unknown error";
        }
        transport.fail("rank " + std::to_string(rank) + " failed" + detail);
      });
    }
    for (auto& t : threads) t.join();
    // Prefer the root-cause exception: when one rank fails, peers blocked
    // in receives observe a secondary ShutdownError — rethrowing that
    // would mask the original error.
    std::exception_ptr first;
    std::exception_ptr first_shutdown;
    for (auto& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const ShutdownError&) {
        if (!first_shutdown) first_shutdown = e;
      } catch (...) {
        if (!first) first = e;
      }
    }
    if (first) std::rethrow_exception(first);
    if (first_shutdown) std::rethrow_exception(first_shutdown);
  }
};

}  // namespace qmpi::classical
