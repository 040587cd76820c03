// QMPI prototype microbenchmarks (google-benchmark): wall-clock cost of
// the communication primitives end-to-end through the threads-as-ranks
// transport and the simulation server. Not a paper figure — these numbers
// characterize the prototype itself (paper §6).

#include <benchmark/benchmark.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "core/qmpi.hpp"
#include "sim/server.hpp"

using namespace qmpi;

namespace {

void BM_JobSpinUp(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run(ranks, [](Context&) {});
  }
}
BENCHMARK(BM_JobSpinUp)->Arg(2)->Arg(4)->Arg(8);

void BM_PrepareEpr(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run(2, [pairs](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(static_cast<std::size_t>(pairs));
      const int peer = 1 - ctx.rank();
      for (int i = 0; i < pairs; ++i) ctx.prepare_epr(q[i], peer, i);
      for (int i = 0; i < pairs; ++i) (void)ctx.measure(q[i]);
    });
  }
  state.SetItemsProcessed(state.iterations() * pairs);
}
// Capped at 8: both ranks' halves live in one global state vector, so
// `pairs` EPR pairs cost 2*pairs simulated qubits.
BENCHMARK(BM_PrepareEpr)->Arg(1)->Arg(4)->Arg(8);

void BM_SendRecvCopy(benchmark::State& state) {
  const int msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run(2, [msgs](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(1);
      if (ctx.rank() == 0) ctx.ry(q[0], 0.5);
      for (int i = 0; i < msgs; ++i) {
        if (ctx.rank() == 0) {
          ctx.send(q, 1, 1, 0);
          ctx.unsend(q, 1, 1, 0);
        } else {
          ctx.recv(q, 1, 0, 0);
          ctx.unrecv(q, 1, 0, 0);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_SendRecvCopy)->Arg(1)->Arg(16);

void BM_Teleport(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run(2, [hops](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(1);
      if (ctx.rank() == 0) ctx.ry(q[0], 0.5);
      for (int i = 0; i < hops; ++i) {
        const bool sender = (i % 2 == 0) == (ctx.rank() == 0);
        if (sender) {
          ctx.send_move(q, 1, 1 - ctx.rank(), 0);
        } else {
          ctx.recv_move(q, 1, 1 - ctx.rank(), 0);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_Teleport)->Arg(1)->Arg(8);

void BM_BcastTreeVsCat(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto alg = state.range(1) == 0 ? BcastAlg::kBinomialTree
                                       : BcastAlg::kCatState;
  for (auto _ : state) {
    run(ranks, [alg](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(1);
      if (ctx.rank() == 0) ctx.ry(q[0], 0.4);
      ctx.bcast(q, 1, 0, alg);
      ctx.unbcast(q, 1, 0);
    });
  }
}
BENCHMARK(BM_BcastTreeVsCat)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1});

void BM_ReduceChain(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run(ranks, [](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(1);
      ctx.ry(q[0], 0.2 * ctx.rank());
      ReductionHandle h = ctx.reduce(q, 1, parity_op(), 0);
      ctx.unreduce(h, q);
    });
  }
}
BENCHMARK(BM_ReduceChain)->Arg(2)->Arg(4)->Arg(8);

/// SimServer::call on either side of kInlineMaxQubits: `callers` threads
/// (args: register width, callers) each run rounds of an Ry gate and a
/// probability_one query on their own qubit, the call mix of a rank
/// thread. Widths up to 16 run on the callers, wider ones on the command
/// thread, so the series shows what each path costs where they meet.
void BM_SimServerCall(benchmark::State& state) {
  constexpr int kPairsPerRound = 4;
  const auto width = static_cast<std::size_t>(state.range(0));
  const auto callers = static_cast<std::size_t>(state.range(1));
  sim::SimServer server;
  const std::vector<sim::QubitId> qubits =
      server.call([width](sim::Backend& b) { return b.allocate(width); });
  // The driver and every caller meet at the start and at the end of each
  // round, so one iteration is one round of all callers.
  std::barrier<> round(static_cast<std::ptrdiff_t>(callers + 1));
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, q = qubits[c]] {
      for (;;) {
        round.arrive_and_wait();
        if (done.load()) return;
        for (int i = 0; i < kPairsPerRound; ++i) {
          server.call([q](sim::Backend& b) {
            b.ry(q, 0.1);
            return 0;
          });
          benchmark::DoNotOptimize(server.call(
              [q](sim::Backend& b) { return b.probability_one(q); }));
        }
        round.arrive_and_wait();
      }
    });
  }
  for (auto _ : state) {
    round.arrive_and_wait();
    round.arrive_and_wait();
  }
  done.store(true);
  round.arrive_and_wait();
  for (auto& t : threads) t.join();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(callers) * 2 *
                          kPairsPerRound);
}
BENCHMARK(BM_SimServerCall)
    ->ArgsProduct({{12, 14, 16, 18, 20}, {2, 4}})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
