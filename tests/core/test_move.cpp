// Tests for move-semantics point-to-point (quantum teleportation,
// appendix A.1): arbitrary states move with fidelity 1, inverses return
// them, and resources match Table 1.
#include <gtest/gtest.h>

#include <cmath>

#include "helpers.hpp"

using namespace qmpi;
namespace qt = qmpi::testing;

namespace {
constexpr double kTheta = 0.8;
constexpr double kPhi = 2.3;

void prepare_bloch(Context& ctx, Qubit q) {
  ctx.ry(q, kTheta);
  ctx.rz(q, kPhi);
}

void expect_bloch(Context& ctx, Qubit q, const char* where) {
  EXPECT_NEAR(qt::exp1(ctx, q, 'Z'), std::cos(kTheta), 1e-12) << where;
  EXPECT_NEAR(qt::exp1(ctx, q, 'X'), std::sin(kTheta) * std::cos(kPhi), 1e-12)
      << where;
  EXPECT_NEAR(qt::exp1(ctx, q, 'Y'), std::sin(kTheta) * std::sin(kPhi), 1e-12)
      << where;
}
}  // namespace

TEST(QmpiMove, TeleportationMovesArbitraryState) {
  // Run several times: the teleportation corrections depend on random
  // measurement outcomes, so repeated runs exercise all four branches.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    JobOptions options;
    options.num_ranks = 2;
    options.seed = seed;
    run(options, [](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(1);
      if (ctx.rank() == 0) {
        prepare_bloch(ctx, q[0]);
        ctx.send_move(q, 1, 1, 0);
        // Move semantics: the local handle is now a fresh |0> qubit.
        EXPECT_NEAR(ctx.probability_one(q[0]), 0.0, 1e-12);
      } else {
        ctx.recv_move(q, 1, 0, 0);
        expect_bloch(ctx, q[0], "after move");
      }
      ctx.barrier();
    });
  }
}

TEST(QmpiMove, TeleportationPreservesEntanglementWithSpectator) {
  // Teleporting one half of a Bell pair must preserve the entanglement
  // (entanglement swapping to the destination node).
  run(2, [](Context& ctx) {
    if (ctx.rank() == 0) {
      QubitArray pair = ctx.alloc_qmem(2);
      ctx.h(pair[0]);
      ctx.cnot(pair[0], pair[1]);
      ctx.send_move(&pair[1], 1, 1, 0);
      const Qubit moved = qt::recv_handle(ctx, 1);
      EXPECT_NEAR(qt::exp2(ctx, pair[0], moved, 'Z', 'Z'), 1.0, 1e-12);
      EXPECT_NEAR(qt::exp2(ctx, pair[0], moved, 'X', 'X'), 1.0, 1e-12);
    } else {
      QubitArray q = ctx.alloc_qmem(1);
      ctx.recv_move(q, 1, 0, 0);
      qt::send_handle(ctx, q[0], 0);
    }
    ctx.barrier();
  });
}

TEST(QmpiMove, UnmoveBringsTheQubitBack) {
  run(2, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) {
      prepare_bloch(ctx, q[0]);
      ctx.send_move(q, 1, 1, 0);
      ctx.unsend_move(q, 1, 1, 0);
      expect_bloch(ctx, q[0], "after round trip");
    } else {
      ctx.recv_move(q, 1, 0, 0);
      ctx.unrecv_move(q, 1, 0, 0);
      EXPECT_NEAR(ctx.probability_one(q[0]), 0.0, 1e-12);
      ctx.free_qmem(q, 1);
    }
    ctx.barrier();
  });
}

TEST(QmpiMove, SendrecvReplaceRotatesStatesAroundARing) {
  constexpr int kRanks = 4;
  run(kRanks, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    const double my_angle = 0.3 * (ctx.rank() + 1);
    ctx.ry(q[0], my_angle);
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() - 1 + ctx.size()) % ctx.size();
    ctx.sendrecv_replace(q, 1, next, prev, 0);
    // Now this rank holds its predecessor's state.
    const double prev_angle = 0.3 * (prev + 1);
    EXPECT_NEAR(qt::exp1(ctx, q[0], 'Z'), std::cos(prev_angle), 1e-12);
    ctx.barrier();
    ctx.unsendrecv_replace(q, 1, next, prev, 0);
    EXPECT_NEAR(qt::exp1(ctx, q[0], 'Z'), std::cos(my_angle), 1e-12);
    ctx.barrier();
  });
}

/// Every rank shifts `count` distinct Ry states one step along the ring
/// (with 2 ranks: a pairwise swap), checks it now holds its predecessor's
/// states, and with `round_trip` moves them back with unsendrecv_replace.
JobReport replace_ring(int ranks, std::size_t count, bool round_trip) {
  const auto angle = [](int rank, std::size_t i) {
    return 0.3 + 0.4 * rank + 0.17 * static_cast<double>(i);
  };
  return run(ranks, [&](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(count);
    for (std::size_t i = 0; i < count; ++i) ctx.ry(q[i], angle(ctx.rank(), i));
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() - 1 + ctx.size()) % ctx.size();
    const auto expect_states = [&](int owner, const char* where) {
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_NEAR(qt::exp1(ctx, q[i], 'Z'), std::cos(angle(owner, i)), 1e-12)
            << where << " qubit " << i;
        EXPECT_NEAR(qt::exp1(ctx, q[i], 'X'), std::sin(angle(owner, i)), 1e-12)
            << where << " qubit " << i;
      }
    };
    ctx.sendrecv_replace(q, count, next, prev, 0);
    expect_states(prev, "after sendrecv_replace");
    if (round_trip) {
      ctx.barrier();
      ctx.unsendrecv_replace(q, count, next, prev, 0);
      expect_states(ctx.rank(), "after unsendrecv_replace");
    }
    ctx.barrier();
  });
}

/// Table 1: each qubit moved costs 1 EPR pair and 2 classical bits.
void expect_move_resources(const JobReport& report, OpCategory category,
                           std::uint64_t moved) {
  EXPECT_EQ(report[category].epr_pairs, moved);
  EXPECT_EQ(report[category].classical_bits, 2 * moved);
}

TEST(QmpiMove, SendrecvReplaceSwapsSeveralQubitsBetweenTwoRanks) {
  // The higher rank posts all of its EPR qubit ids before its first
  // fix-up, so the receiver must not expect them interleaved.
  for (const std::size_t count : {2ul, 3ul}) {
    const JobReport report = replace_ring(2, count, /*round_trip=*/false);
    expect_move_resources(report, OpCategory::kMove, 2 * count);
  }
}

TEST(QmpiMove, SendrecvReplaceRotatesSeveralQubitsAroundARing) {
  // Mid-exchange every rank holds its 2 qubits, 2 EPR halves and 2
  // incoming qubits: a 24-qubit state, the widest this suite builds.
  const JobReport report = replace_ring(4, 2, /*round_trip=*/false);
  expect_move_resources(report, OpCategory::kMove, 4 * 2);
}

TEST(QmpiMove, UnsendrecvReplaceRestoresSeveralQubits) {
  const JobReport report = replace_ring(2, 2, /*round_trip=*/true);
  expect_move_resources(report, OpCategory::kMove, 2 * 2);
  expect_move_resources(report, OpCategory::kUnmove, 2 * 2);
}

TEST(QmpiMove, ResourcesMatchTable1PerQubit) {
  // Table 1: move = 1 EPR + 2 bits; unmove = 1 EPR + 2 bits (per qubit).
  for (const std::size_t count : {1ul, 3ul}) {
    const JobReport report = run(2, [count](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(count);
      if (ctx.rank() == 0) {
        for (std::size_t i = 0; i < count; ++i) ctx.ry(q[i], 1.0);
        ctx.send_move(q, count, 1, 0);
        ctx.unsend_move(q, count, 1, 0);
      } else {
        ctx.recv_move(q, count, 0, 0);
        ctx.unrecv_move(q, count, 0, 0);
        ctx.free_qmem(q, count);
      }
    });
    EXPECT_EQ(report[OpCategory::kMove].epr_pairs, count);
    EXPECT_EQ(report[OpCategory::kMove].classical_bits, 2 * count);
    EXPECT_EQ(report[OpCategory::kUnmove].epr_pairs, count);
    EXPECT_EQ(report[OpCategory::kUnmove].classical_bits, 2 * count);
  }
}

TEST(QmpiMove, MoveThroughIntermediateHop) {
  // 0 -> 1 -> 2 relay: state must survive two teleportations.
  run(3, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) {
      prepare_bloch(ctx, q[0]);
      ctx.send_move(q, 1, 1, 0);
    } else if (ctx.rank() == 1) {
      ctx.recv_move(q, 1, 0, 0);
      ctx.send_move(q, 1, 2, 0);
    } else {
      ctx.recv_move(q, 1, 1, 0);
      expect_bloch(ctx, q[0], "after relay");
    }
    ctx.barrier();
  });
}

TEST(QmpiMove, NonblockingMoveCompletesAtWait) {
  run(2, [](Context& ctx) {
    QubitArray q = ctx.alloc_qmem(1);
    if (ctx.rank() == 0) {
      prepare_bloch(ctx, q[0]);
      QRequest req = ctx.isend_move(q, 1, 1, 0);
      req.wait();
    } else {
      QRequest req = ctx.irecv_move(q, 1, 0, 0);
      req.wait();
      expect_bloch(ctx, q[0], "after async move");
    }
    ctx.barrier();
  });
}
