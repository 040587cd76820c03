// Shard/serial bit-identity regression tests (the sharded sibling of
// test_parallel_identity.cpp).
//
// The ShardedStateVector performs the same arithmetic per logical basis
// state as the serial StateVector — local gates run the same kernels per
// slice, global gates combine exchanged slabs with the same pair formulas,
// and reductions enumerate logical indices with the shared chunked
// combine. So for ANY shard count the amplitudes must match the serial
// backend with operator== on the raw doubles — no tolerance — and, the
// RNG draws being shared via Backend, every measurement outcome must match
// draw for draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/sharded_statevector.hpp"
#include "sim/statevector.hpp"

namespace sim = qmpi::sim;
using sim::Complex;

namespace {

// 8 shards leave 2^10 local amplitudes per slice; global qubits are
// positions kQubits-3 and up at the largest shard count.
constexpr std::size_t kQubits = 13;

const unsigned kShardCounts[] = {1, 2, 4, 8};

void expect_bit_identical(const sim::Backend& serial,
                          const sim::Backend& sharded) {
  const auto a = serial.snapshot();
  const auto b = sharded.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << "amplitude " << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << "amplitude " << i;
  }
}

/// Entangles and rotates all qubits so no amplitude is zero or special.
void prepare(sim::Backend& sv, const std::vector<sim::QubitId>& q) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    sv.ry(q[i], 0.3 + 0.11 * static_cast<double>(i));
  }
  for (std::size_t i = 0; i + 1 < q.size(); ++i) sv.cnot(q[i], q[i + 1]);
  for (std::size_t i = 0; i < q.size(); ++i) {
    sv.rz(q[i], -0.7 + 0.05 * static_cast<double>(i));
  }
  sv.flush_gates();
}

/// Runs `program` on a serial StateVector and a `shards`-slice
/// ShardedStateVector (same seed) and asserts bit-identical amplitudes.
template <typename Program>
void check_identity(Program&& program, unsigned shards,
                    bool relabel_policy = true, unsigned threads = 1) {
  sim::StateVector serial(1234);
  sim::ShardedStateVector sharded(shards, 1234);
  sharded.set_relabel_policy(relabel_policy);
  sharded.set_num_threads(threads);
  serial.set_num_threads(threads);
  const auto qs = serial.allocate(kQubits);
  const auto qt = sharded.allocate(kQubits);
  prepare(serial, qs);
  prepare(sharded, qt);
  program(serial, qs);
  program(sharded, qt);
  expect_bit_identical(serial, sharded);
}

}  // namespace

TEST(ShardedIdentity, ConstructionRequiresPowerOfTwo) {
  EXPECT_THROW(sim::ShardedStateVector sv(3), sim::SimulatorError);
  EXPECT_THROW(sim::ShardedStateVector sv(6), sim::SimulatorError);
  EXPECT_NO_THROW(sim::ShardedStateVector sv(4));
}

TEST(ShardedIdentity, LocalAndGlobalSingleQubitGates) {
  for (const unsigned s : kShardCounts) {
    check_identity(
        [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
          sv.h(q[2]);                    // local at every shard count
          sv.ry(q[kQubits - 1], 1.234);  // global for any s > 1
          sv.h(q[kQubits - 2]);
          sv.flush_gates();
        },
        s);
  }
}

TEST(ShardedIdentity, GlobalDiagonalGatesNeedNoExchange) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(7);
    sim::ShardedStateVector sharded(s, 7);
    const auto qs = serial.allocate(kQubits);
    const auto qt = sharded.allocate(kQubits);
    prepare(serial, qs);
    prepare(sharded, qt);
    const std::uint64_t exchanges_before = sharded.exchange_sweeps();
    const std::uint64_t relabels_before = sharded.relabel_swaps();
    auto program = [](sim::Backend& sv,
                      const std::vector<sim::QubitId>& q) {
      sv.rz(q[kQubits - 1], 0.81);  // general diagonal, global
      sv.t(q[kQubits - 2]);         // phase-type, global
      sv.z(q[kQubits - 1]);
      sv.flush_gates();
    };
    program(serial, qs);
    program(sharded, qt);
    // Diagonal gates never pay communication, no matter the target.
    EXPECT_EQ(sharded.exchange_sweeps(), exchanges_before);
    EXPECT_EQ(sharded.relabel_swaps(), relabels_before);
    expect_bit_identical(serial, sharded);
  }
}

TEST(ShardedIdentity, ControlledGatesAcrossTheSplit) {
  for (const unsigned s : kShardCounts) {
    for (const bool relabel : {false, true}) {
      check_identity(
          [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
            sv.cnot(q[0], q[kQubits - 1]);  // local ctrl, global target
            sv.cnot(q[kQubits - 1], q[1]);  // global ctrl, local target
            sv.cz(q[kQubits - 2], q[2]);
            sv.toffoli(q[kQubits - 1], q[3], q[kQubits - 2]);
            const sim::QubitId controls[] = {q[1], q[kQubits - 2], q[4]};
            sv.apply_controlled(sim::gate_ry(0.456), controls, q[5]);
            sv.swap(q[0], q[kQubits - 1]);
          },
          s, relabel);
    }
  }
}

TEST(ShardedIdentity, MeasurementAndCollapse) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(42);
    sim::ShardedStateVector sharded(s, 42);
    const auto qs = serial.allocate(kQubits);
    const auto qt = sharded.allocate(kQubits);
    prepare(serial, qs);
    prepare(sharded, qt);
    // Same RNG seed + bit-identical probabilities => same outcomes.
    EXPECT_EQ(serial.measure(qs[4]), sharded.measure(qt[4]));
    EXPECT_EQ(serial.measure(qs[kQubits - 1]),
              sharded.measure(qt[kQubits - 1]));  // global qubit
    EXPECT_EQ(serial.measure_x(qs[10]), sharded.measure_x(qt[10]));
    expect_bit_identical(serial, sharded);
  }
}

TEST(ShardedIdentity, ParityMeasurementSpanningShards) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(42);
    sim::ShardedStateVector sharded(s, 42);
    const auto qs = serial.allocate(kQubits);
    const auto qt = sharded.allocate(kQubits);
    prepare(serial, qs);
    prepare(sharded, qt);
    const sim::QubitId js[] = {qs[0], qs[6], qs[kQubits - 1]};
    const sim::QubitId jt[] = {qt[0], qt[6], qt[kQubits - 1]};
    EXPECT_EQ(serial.measure_parity(js), sharded.measure_parity(jt));
    expect_bit_identical(serial, sharded);
  }
}

TEST(ShardedIdentity, ReleaseAllocateDynamics) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(99);
    sim::ShardedStateVector sharded(s, 99);
    auto qs = serial.allocate(kQubits);
    auto qt = sharded.allocate(kQubits);
    prepare(serial, qs);
    prepare(sharded, qt);
    // Shrink below, then grow past, the shard budget's comfort zone.
    EXPECT_EQ(serial.release(qs[7]), sharded.release(qt[7]));
    EXPECT_EQ(serial.release(qs[kQubits - 1]),
              sharded.release(qt[kQubits - 1]));
    const auto ns = serial.allocate(3);
    const auto nt = sharded.allocate(3);
    auto post = [](sim::Backend& sv, const std::vector<sim::QubitId>& fresh,
                   sim::QubitId old) {
      sv.h(fresh[2]);
      sv.cnot(fresh[2], old);
      sv.ry(fresh[0], 0.37);
    };
    post(serial, ns, qs[0]);
    post(sharded, nt, qt[0]);
    expect_bit_identical(serial, sharded);
    EXPECT_EQ(serial.num_qubits(), sharded.num_qubits());
  }
}

TEST(ShardedIdentity, MeasureFreeCyclesAtBottomAndTop) {
  // The lifecycle of a boundary spin in the paper's Listing 1: allocate a
  // qubit, entangle it, measure, reset with X, free. The freed qubit is
  // taken from position 0, 1 or the top, so compaction moves runs of 1,
  // 2 and 2^(n-1) amplitudes.
  constexpr std::size_t kTop = ~std::size_t{0};
  for (const unsigned s : {1U, 4U}) {
    sim::StateVector serial(17);
    sim::ShardedStateVector sharded(s, 17);
    auto qs = serial.allocate(kQubits);
    auto qt = sharded.allocate(kQubits);
    prepare(serial, qs);
    prepare(sharded, qt);
    auto cycle = [](sim::Backend& sv, std::vector<sim::QubitId>& live,
                    std::size_t pos) {
      const sim::QubitId a = sv.allocate(1)[0];
      live.push_back(a);
      sv.h(a);
      sv.cnot(a, live[live.size() / 2]);
      const sim::QubitId victim = live[pos == kTop ? live.size() - 1 : pos];
      const bool bit = sv.measure(victim);
      if (bit) sv.x(victim);
      sv.deallocate_classical(victim);
      live.erase(std::find(live.begin(), live.end(), victim));
      return bit;
    };
    for (int round = 0; round < 3; ++round) {
      for (const std::size_t pos : {std::size_t{0}, std::size_t{1}, kTop}) {
        ASSERT_EQ(cycle(serial, qs, pos), cycle(sharded, qt, pos))
            << "shards=" << s << " round=" << round << " pos=" << pos;
        expect_bit_identical(serial, sharded);
      }
    }
    EXPECT_EQ(serial.num_qubits(), kQubits);
    EXPECT_EQ(sharded.num_qubits(), kQubits);
  }
}

TEST(ShardedIdentity, DeallocateValidatesLikeSerial) {
  sim::ShardedStateVector sharded(4, 5);
  const auto q = sharded.allocate(6);
  sharded.h(q[5]);
  EXPECT_THROW(sharded.deallocate(q[5]), sim::SimulatorError);
  sharded.h(q[5]);  // fuses back to identity
  EXPECT_NO_THROW(sharded.deallocate(q[5]));
  EXPECT_EQ(sharded.num_qubits(), 5u);
}

TEST(ShardedIdentity, PauliRotationDiagonalAndGeneral) {
  for (const unsigned s : kShardCounts) {
    check_identity(
        [](sim::Backend& sv, const std::vector<sim::QubitId>& q) {
          const std::pair<sim::QubitId, char> zz[] = {
              {q[2], 'Z'}, {q[kQubits - 1], 'Z'}};
          sv.apply_pauli_rotation(zz, 0.37);  // diagonal path
          const std::pair<sim::QubitId, char> xyz[] = {
              {q[1], 'X'}, {q[8], 'Y'}, {q[kQubits - 1], 'Z'}};
          sv.apply_pauli_rotation(xyz, -0.21);  // pair path across shards
          const std::pair<sim::QubitId, char> xx[] = {
              {q[kQubits - 1], 'X'}, {q[kQubits - 2], 'X'}};
          sv.apply_pauli_rotation(xx, 0.11);  // flips only global bits
        },
        s);
  }
}

TEST(ShardedIdentity, ScalarObservablesExactlyEqual) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(99);
    sim::ShardedStateVector sharded(s, 99);
    const auto qs = serial.allocate(kQubits);
    const auto qt = sharded.allocate(kQubits);
    prepare(serial, qs);
    prepare(sharded, qt);
    // Reductions share chunk size and combine order, so these must match
    // to the last bit, not within tolerance.
    ASSERT_EQ(serial.norm(), sharded.norm()) << "shards=" << s;
    ASSERT_EQ(serial.probability_one(qs[5]), sharded.probability_one(qt[5]));
    ASSERT_EQ(serial.probability_one(qs[kQubits - 1]),
              sharded.probability_one(qt[kQubits - 1]));
    const std::pair<sim::QubitId, char> ps[] = {
        {qs[0], 'X'}, {qs[4], 'Y'}, {qs[kQubits - 1], 'Z'}};
    const std::pair<sim::QubitId, char> pt[] = {
        {qt[0], 'X'}, {qt[4], 'Y'}, {qt[kQubits - 1], 'Z'}};
    ASSERT_EQ(serial.expectation(ps), sharded.expectation(pt));
    // Per-basis-state access agrees too (spot-check one state).
    bool bits[kQubits] = {};
    bits[0] = bits[kQubits - 1] = true;
    ASSERT_EQ(serial.amplitude(qs, bits), sharded.amplitude(qt, bits));
  }
}

TEST(ShardedIdentity, RelabelPolicyKeepsHotQubitsLocal) {
  sim::ShardedStateVector sharded(4, 1);
  // Prepare with the policy off so the layout stays identity (exchanges
  // move amplitudes, never labels) and q[kQubits-1] is physically global.
  sharded.set_relabel_policy(false);
  const auto q = sharded.allocate(kQubits);
  prepare(sharded, q);
  sharded.set_relabel_policy(true);
  const std::uint64_t exchanges_before = sharded.exchange_sweeps();
  ASSERT_EQ(sharded.relabel_swaps(), 0u);
  // First general gate on a global qubit pays one relabeling pass...
  sharded.h(q[kQubits - 1]);
  sharded.flush_gates();
  EXPECT_EQ(sharded.relabel_swaps(), 1u);
  EXPECT_EQ(sharded.exchange_sweeps(), exchanges_before);
  // ...and every follow-up on the now-local qubit is free of communication.
  for (int i = 0; i < 5; ++i) {
    sharded.ry(q[kQubits - 1], 0.1 * i);
    sharded.flush_gates();
  }
  EXPECT_EQ(sharded.relabel_swaps(), 1u);
  EXPECT_EQ(sharded.exchange_sweeps(), exchanges_before);

  // With the policy off, the same traffic pays one exchange per sweep.
  sim::ShardedStateVector direct(4, 1);
  direct.set_relabel_policy(false);
  const auto p = direct.allocate(kQubits);
  prepare(direct, p);  // the entangling chain itself pays exchanges here
  const std::uint64_t direct_before = direct.exchange_sweeps();
  direct.h(p[kQubits - 1]);
  direct.flush_gates();
  direct.h(p[kQubits - 1]);
  direct.flush_gates();
  EXPECT_EQ(direct.relabel_swaps(), 0u);
  EXPECT_EQ(direct.exchange_sweeps(), direct_before + 2);
}

TEST(ShardedIdentity, RandomCircuitsWithMeasurement) {
  for (const unsigned s : kShardCounts) {
    sim::StateVector serial(777);
    sim::ShardedStateVector sharded(s, 777);
    auto qs = serial.allocate(kQubits);
    auto qt = sharded.allocate(kQubits);
    std::mt19937_64 rng(4242);  // one program, replayed on both backends
    std::uniform_real_distribution<double> angle(-3.0, 3.0);
    std::uniform_int_distribution<std::size_t> pick(0, kQubits - 1);
    std::uniform_int_distribution<int> choice(0, 5);
    for (int step = 0; step < 60; ++step) {
      const auto i = pick(rng);
      auto j = pick(rng);
      while (j == i) j = pick(rng);
      switch (choice(rng)) {
        case 0: {
          const double a = angle(rng);
          serial.ry(qs[i], a);
          sharded.ry(qt[i], a);
          break;
        }
        case 1: {
          const double a = angle(rng);
          serial.rz(qs[j], a);
          sharded.rz(qt[j], a);
          break;
        }
        case 2:
          serial.h(qs[i]);
          sharded.h(qt[i]);
          break;
        case 3:
          serial.t(qs[j]);
          sharded.t(qt[j]);
          break;
        case 4:
          serial.cnot(qs[i], qs[j]);
          sharded.cnot(qt[i], qt[j]);
          break;
        default:
          EXPECT_EQ(serial.measure(qs[i]), sharded.measure(qt[i]))
              << "shards=" << s << " step=" << step;
          break;
      }
    }
    EXPECT_EQ(serial.measure(qs[0]), sharded.measure(qt[0]));
    expect_bit_identical(serial, sharded);
    ASSERT_EQ(serial.norm(), sharded.norm());
  }
}

TEST(ShardedIdentity, ThreadedShardsStayBitIdentical) {
  // Large enough that sweeps cross kMinParallel and the exchange phases
  // really run on pool workers — the configuration TSan wants to see.
  constexpr std::size_t kBig = 17;
  for (const unsigned s : {2U, 4U}) {
    for (const unsigned t : {2U, 4U}) {
      for (const bool relabel : {false, true}) {
        sim::StateVector serial(31);
        sim::ShardedStateVector sharded(s, 31);
        sharded.set_relabel_policy(relabel);
        sharded.set_num_threads(t);
        const auto qs = serial.allocate(kBig);
        const auto qt = sharded.allocate(kBig);
        prepare(serial, qs);
        prepare(sharded, qt);
        auto program = [](sim::Backend& sv,
                          const std::vector<sim::QubitId>& q) {
          sv.h(q[kBig - 1]);
          sv.cnot(q[0], q[kBig - 1]);
          sv.cnot(q[kBig - 1], q[3]);
          sv.ry(q[kBig - 2], 0.77);
          (void)sv.measure(q[kBig - 1]);
        };
        program(serial, qs);
        program(sharded, qt);
        expect_bit_identical(serial, sharded);
      }
    }
  }
}

TEST(ShardedIdentity, SerialSnapshotMatchesRawAmplitudes) {
  sim::StateVector sv(3);
  const auto q = sv.allocate(6);
  prepare(sv, q);
  const auto snap = sv.snapshot();
  const auto& raw = sv.amplitudes();
  ASSERT_EQ(snap.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) EXPECT_EQ(snap[i], raw[i]);
}

TEST(ShardedIdentity, FactoryMakesBothKinds) {
  const auto serial = sim::make_backend(sim::BackendKind::kSerial);
  const auto sharded =
      sim::make_backend(sim::BackendKind::kSharded, sim::kDefaultSeed, 4);
  EXPECT_STREQ(serial->name(), "serial");
  EXPECT_STREQ(sharded->name(), "sharded");
  sim::BackendKind kind;
  EXPECT_TRUE(sim::backend_kind_from_string("sharded", kind));
  EXPECT_EQ(kind, sim::BackendKind::kSharded);
  EXPECT_FALSE(sim::backend_kind_from_string("quantum", kind));
}
