// State-level tests for QMPI collectives: bcast (both algorithms, any
// root, superposed payloads), gather/scatter/allgather/alltoall and move
// variants — verified through the global state vector.
#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"

using namespace qmpi;
namespace qt = qmpi::testing;

namespace {
struct BcastCase {
  int ranks;
  int root;
  BcastAlg alg;
};
}  // namespace

class BcastAlgorithms : public ::testing::TestWithParam<BcastCase> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, BcastAlgorithms,
    ::testing::Values(BcastCase{2, 0, BcastAlg::kBinomialTree},
                      BcastCase{2, 0, BcastAlg::kCatState},
                      BcastCase{3, 0, BcastAlg::kCatState},
                      BcastCase{4, 0, BcastAlg::kBinomialTree},
                      BcastCase{4, 0, BcastAlg::kCatState},
                      BcastCase{5, 0, BcastAlg::kCatState},
                      BcastCase{4, 2, BcastAlg::kBinomialTree},
                      BcastCase{4, 2, BcastAlg::kCatState},
                      BcastCase{3, 2, BcastAlg::kCatState},
                      BcastCase{6, 5, BcastAlg::kCatState}),
    [](const auto& info) {
      return std::string(info.param.alg == BcastAlg::kCatState ? "Cat"
                                                               : "Tree") +
             "N" + std::to_string(info.param.ranks) + "root" +
             std::to_string(info.param.root);
    });

TEST_P(BcastAlgorithms, CreatesGhzOverAllRanksAndUnbcastRestores) {
  const auto [ranks, root, alg] = GetParam();
  const double theta = 1.1;
  run(ranks, [&, ranks = ranks, root = root, alg = alg](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == root) ctx.ry(q[0], theta);
    ctx.bcast(q, 1, root, alg);
    // Collect handles on the root and verify the fanned-out state:
    // cos(t/2)|0...0> + sin(t/2)|1...1>.
    if (ctx.rank() == root) {
      std::vector<Qubit> all(static_cast<std::size_t>(ranks));
      all[static_cast<std::size_t>(root)] = q[0];
      for (int r = 0; r < ranks; ++r) {
        if (r == root) continue;
        all[static_cast<std::size_t>(r)] = qt::recv_handle(ctx, r);
      }
      // Pairwise perfect ZZ correlation with the root's qubit.
      for (int r = 0; r < ranks; ++r) {
        if (r == root) continue;
        EXPECT_NEAR(qt::exp2(ctx, q[0], all[static_cast<std::size_t>(r)],
                             'Z', 'Z'),
                    1.0, 1e-9)
            << "rank " << r;
      }
      // Global X...X coherence: <X^n> = sin(theta) for n even... compute
      // generally: for cat state cos|0..>+sin|1..>, <X^n> = 2 cos sin =
      // sin(theta).
      std::vector<std::pair<sim::QubitId, char>> xs;
      for (const Qubit qu : all) xs.emplace_back(qu.id, 'X');
      EXPECT_NEAR(qt::expectation(ctx, xs), std::sin(theta), 1e-9);
    } else {
      qt::send_handle(ctx, q[0], root);
    }
    ctx.barrier();

    ctx.unbcast(q, 1, root);
    if (ctx.rank() == root) {
      EXPECT_NEAR(qt::exp1(ctx, q[0], 'Z'), std::cos(theta), 1e-9);
      EXPECT_NEAR(qt::exp1(ctx, q[0], 'X'), std::sin(theta), 1e-9);
    } else {
      EXPECT_NEAR(ctx.probability_one(q[0]), 0.0, 1e-9);
      ctx.free_qmem(q, 1);
    }
    ctx.barrier();
  });
}

TEST(QmpiBcast, MultiQubitMessage) {
  run(3, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(2);
    if (ctx.rank() == 0) {
      ctx.ry(q[0], 0.7);
      ctx.x(q[1]);
    }
    ctx.bcast(q, 2, 0, BcastAlg::kCatState);
    // Second qubit is classical |1>: every copy must read 1.
    EXPECT_NEAR(ctx.probability_one(q[1]), 1.0, 1e-9);
    ctx.barrier();
    ctx.unbcast(q, 2, 0);
    if (ctx.rank() != 0) {
      EXPECT_NEAR(ctx.probability_one(q[1]), 0.0, 1e-9);
      ctx.free_qmem(q, 2);
    }
    ctx.barrier();
  });
}

TEST(QmpiBcast, BothAlgorithmsConsumeNMinus1EprPairs) {
  for (const auto alg : {BcastAlg::kBinomialTree, BcastAlg::kCatState}) {
    for (const int n : {2, 3, 5}) {
      const JobReport r = run(n, [alg](Context& ctx) {
        QubitArray q = ctx.alloc_qmem(1);
        if (ctx.rank() == 0) ctx.ry(q[0], 0.4);
        ctx.bcast(q, 1, 0, alg);
      });
      EXPECT_EQ(r[OpCategory::kCopy].epr_pairs,
                static_cast<std::uint64_t>(n - 1))
          << "n=" << n;
    }
  }
}

TEST(QmpiBcast, UnbcastUsesClassicalBitsOnly) {
  const JobReport r = run(4, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) ctx.ry(q[0], 0.4);
    ctx.bcast(q, 1, 0);
    ctx.unbcast(q, 1, 0);
  });
  EXPECT_EQ(r[OpCategory::kUncopy].epr_pairs, 0u);
  EXPECT_EQ(r[OpCategory::kUncopy].classical_bits, 3u);
}

TEST(QmpiGatherScatter, GatherCollectsEntangledCopies) {
  constexpr int kRanks = 3;
  run(kRanks, [](Context& ctx) {
    QubitArray mine = ctx.alloc_qmem(1);
    ctx.ry(mine[0], 0.3 * (ctx.rank() + 1));
    QubitArray slots =
        ctx.rank() == 0 ? ctx.alloc_qmem(kRanks) : QubitArray();
    ctx.gather(mine, 1, slots.data(), 0);
    if (ctx.rank() == 0) {
      for (int r = 0; r < kRanks; ++r) {
        EXPECT_NEAR(qt::exp1(ctx, slots[static_cast<std::size_t>(r)], 'Z'),
                    std::cos(0.3 * (r + 1)), 1e-9)
            << "slot " << r;
      }
    }
    ctx.barrier();
    ctx.ungather(mine, 1, slots.data(), 0);
    EXPECT_NEAR(qt::exp1(ctx, mine[0], 'Z'), std::cos(0.3 * (ctx.rank() + 1)),
                1e-9);
    if (ctx.rank() == 0) {
      for (int r = 0; r < kRanks; ++r) {
        EXPECT_NEAR(ctx.probability_one(slots[static_cast<std::size_t>(r)]),
                    0.0, 1e-9);
      }
      ctx.free_qmem(slots, kRanks);
    }
    ctx.barrier();
  });
}

TEST(QmpiGatherScatter, ScatterDeliversRootBlocks) {
  constexpr int kRanks = 3;
  run(kRanks, [](Context& ctx) {
    QubitArray src = ctx.rank() == 0 ? ctx.alloc_qmem(kRanks) : QubitArray();
    if (ctx.rank() == 0) {
      for (int i = 0; i < kRanks; ++i) ctx.ry(src[i], 0.25 * (i + 1));
    }
    QubitArray recv = ctx.alloc_qmem(1);
    ctx.scatter(src.data(), recv.data(), 1, 0);
    EXPECT_NEAR(qt::exp1(ctx, recv[0], 'Z'), std::cos(0.25 * (ctx.rank() + 1)),
                1e-9);
    ctx.barrier();
    ctx.unscatter(src.data(), recv.data(), 1, 0);
    EXPECT_NEAR(ctx.probability_one(recv[0]), 0.0, 1e-9);
    ctx.free_qmem(recv, 1);
    ctx.barrier();
  });
}

TEST(QmpiAllgather, EveryRankSeesEveryValue) {
  constexpr int kRanks = 3;
  run(kRanks, [](Context& ctx) {
    QubitArray mine = ctx.alloc_qmem(1);
    ctx.ry(mine[0], 0.3 * (ctx.rank() + 1));
    QubitArray slots = ctx.alloc_qmem(kRanks);
    ctx.allgather(mine, 1, slots.data());
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_NEAR(qt::exp1(ctx, slots[static_cast<std::size_t>(r)], 'Z'),
                  std::cos(0.3 * (r + 1)), 1e-9)
          << "rank " << ctx.rank() << " slot " << r;
    }
    ctx.barrier();
    ctx.unallgather(mine, 1, slots.data());
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_NEAR(ctx.probability_one(slots[static_cast<std::size_t>(r)]),
                  0.0, 1e-9);
    }
    ctx.free_qmem(slots, kRanks);
    ctx.barrier();
  });
}

TEST(QmpiAlltoall, PersonalizedExchangeOfCopies) {
  constexpr int kRanks = 3;
  run(kRanks, [](Context& ctx) {
    QubitArray out = ctx.alloc_qmem(kRanks);
    // out[j] encodes (rank, j) as an angle.
    for (int j = 0; j < kRanks; ++j) {
      ctx.ry(out[j], 0.2 * (ctx.rank() * kRanks + j + 1));
    }
    QubitArray in = ctx.alloc_qmem(kRanks);
    ctx.alltoall(out.data(), in.data(), 1);
    for (int j = 0; j < kRanks; ++j) {
      const double expected = 0.2 * (j * kRanks + ctx.rank() + 1);
      EXPECT_NEAR(qt::exp1(ctx, in[static_cast<std::size_t>(j)], 'Z'),
                  std::cos(expected), 1e-9)
          << "rank " << ctx.rank() << " from " << j;
    }
    ctx.barrier();
    ctx.unalltoall(out.data(), in.data(), 1);
    for (int j = 0; j < kRanks; ++j) {
      EXPECT_NEAR(ctx.probability_one(in[static_cast<std::size_t>(j)]), 0.0,
                  1e-9);
    }
    ctx.free_qmem(in, kRanks);
    ctx.barrier();
  });
}

TEST(QmpiMoveCollectives, GatherMoveRelocatesStates) {
  constexpr int kRanks = 3;
  run(kRanks, [](Context& ctx) {
    QubitArray mine = ctx.alloc_qmem(1);
    ctx.ry(mine[0], 0.3 * (ctx.rank() + 1));
    QubitArray slots =
        ctx.rank() == 0 ? ctx.alloc_qmem(kRanks) : QubitArray();
    ctx.gather_move(mine, 1, slots.data(), 0);
    if (ctx.rank() == 0) {
      for (int r = 0; r < kRanks; ++r) {
        EXPECT_NEAR(qt::exp1(ctx, slots[static_cast<std::size_t>(r)], 'Z'),
                    std::cos(0.3 * (r + 1)), 1e-9);
      }
    }
    // Move semantics: the source qubits are now |0>.
    EXPECT_NEAR(ctx.probability_one(mine[0]), 0.0, 1e-9);
    ctx.barrier();
    ctx.ungather_move(mine.data(), 1, slots.data(), 0);
    EXPECT_NEAR(qt::exp1(ctx, mine[0], 'Z'), std::cos(0.3 * (ctx.rank() + 1)),
                1e-9);
    if (ctx.rank() == 0) ctx.free_qmem(slots, kRanks);
    ctx.barrier();
  });
}

TEST(QmpiMoveCollectives, ScatterMoveIsTheRotationFarmPattern) {
  // §4.5's use case: root scatter-moves rotation qubits to separate nodes,
  // rotations run in parallel, then gather-move brings them home.
  constexpr int kRanks = 3;
  run(kRanks, [](Context& ctx) {
    QubitArray work =
        ctx.rank() == 0 ? ctx.alloc_qmem(kRanks) : QubitArray();
    if (ctx.rank() == 0) {
      for (int i = 0; i < kRanks; ++i) ctx.h(work[i]);
    }
    QubitArray local = ctx.alloc_qmem(1);
    ctx.scatter_move(work.data(), local.data(), 1, 0);
    // Parallel rotations on distinct nodes.
    ctx.rz(local[0], 0.4 * (ctx.rank() + 1));
    ctx.barrier();
    ctx.unscatter_move(work.data(), local.data(), 1, 0);
    if (ctx.rank() == 0) {
      for (int i = 0; i < kRanks; ++i) {
        // H then Rz(phi): <X> = cos(phi).
        EXPECT_NEAR(qt::exp1(ctx, work[i], 'X'), std::cos(0.4 * (i + 1)),
                    1e-9)
            << "slot " << i;
      }
      // The work qubits are in superposition; leave them allocated (the
      // job owns the simulator and tears it down wholesale).
    }
    EXPECT_NEAR(ctx.probability_one(local[0]), 0.0, 1e-9);
    ctx.free_qmem(local, 1);
    ctx.barrier();
  });
}

TEST(QmpiMoveCollectives, AlltoallMoveTransposesBlocks) {
  constexpr int kRanks = 2;
  run(kRanks, [](Context& ctx) {
    QubitArray out = ctx.alloc_qmem(kRanks);
    for (int j = 0; j < kRanks; ++j) {
      ctx.ry(out[j], 0.2 * (ctx.rank() * kRanks + j + 1));
    }
    QubitArray in = ctx.alloc_qmem(kRanks);
    ctx.alltoall_move(out.data(), in.data(), 1);
    for (int j = 0; j < kRanks; ++j) {
      const double expected = 0.2 * (j * kRanks + ctx.rank() + 1);
      EXPECT_NEAR(qt::exp1(ctx, in[static_cast<std::size_t>(j)], 'Z'),
                  std::cos(expected), 1e-9);
      EXPECT_NEAR(ctx.probability_one(out[static_cast<std::size_t>(j)]), 0.0,
                  1e-9);
    }
    ctx.barrier();
  });
}

TEST(QmpiMoveCollectives, AlltoallMoveTransposesBlocksOfTwo) {
  // Blocks of count >= 2 share one tag per pair for ids and fix-ups.
  constexpr int kRanks = 2;
  constexpr std::size_t kCount = 2;
  constexpr std::size_t kSlots = kRanks * kCount;
  const auto angle = [](int rank, std::size_t slot) {
    return 0.2 * (static_cast<double>(rank * kSlots + slot) + 1);
  };
  run(kRanks, [&](Context& ctx) {
    QubitArray out = ctx.alloc_qmem(kSlots);
    for (std::size_t s = 0; s < kSlots; ++s) {
      ctx.ry(out[s], angle(ctx.rank(), s));
    }
    QubitArray in = ctx.alloc_qmem(kSlots);
    ctx.alltoall_move(out.data(), in.data(), kCount);
    for (int j = 0; j < kRanks; ++j) {
      for (std::size_t i = 0; i < kCount; ++i) {
        const auto sent = static_cast<std::size_t>(ctx.rank()) * kCount + i;
        const Qubit got = in[static_cast<std::size_t>(j) * kCount + i];
        EXPECT_NEAR(qt::exp1(ctx, got, 'Z'), std::cos(angle(j, sent)), 1e-9)
            << "rank " << ctx.rank() << " from " << j << " slot " << i;
      }
    }
    ctx.barrier();
  });
}

TEST(QmpiCollectives, BackToBackCollectivesStayConsistent) {
  // Repeated bcast/unbcast cycles with alternating algorithms must not
  // cross-wire protocol traffic.
  run(4, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    for (int iter = 0; iter < 6; ++iter) {
      const int root = iter % ctx.size();
      const auto alg =
          iter % 2 == 0 ? BcastAlg::kBinomialTree : BcastAlg::kCatState;
      if (ctx.rank() == root) ctx.ry(q[0], 0.5);
      ctx.bcast(q, 1, root, alg);
      ctx.unbcast(q, 1, root);
      if (ctx.rank() == root) {
        EXPECT_NEAR(qt::exp1(ctx, q[0], 'Z'), std::cos(0.5), 1e-9);
        ctx.ry(q[0], -0.5);  // reset for the next iteration
      } else {
        EXPECT_NEAR(ctx.probability_one(q[0]), 0.0, 1e-9);
      }
      ctx.barrier();
    }
  });
}
