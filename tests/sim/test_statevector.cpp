// Unit tests for the state-vector simulator: gate algebra, allocation
// lifecycle, amplitudes, and expectation values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <vector>

#include "sim/statevector.hpp"
#include "sim/sweep.hpp"

namespace sim = qmpi::sim;
using sim::Complex;

namespace {

double exp_z(sim::StateVector& sv, sim::QubitId q) {
  const std::pair<sim::QubitId, char> p[] = {{q, 'Z'}};
  return sv.expectation(p);
}
double exp_x(sim::StateVector& sv, sim::QubitId q) {
  const std::pair<sim::QubitId, char> p[] = {{q, 'X'}};
  return sv.expectation(p);
}
double exp_y(sim::StateVector& sv, sim::QubitId q) {
  const std::pair<sim::QubitId, char> p[] = {{q, 'Y'}};
  return sv.expectation(p);
}

}  // namespace

TEST(StateVector, FreshQubitIsZero) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[0]), 0.0);
  EXPECT_NEAR(exp_z(sv, q[0]), 1.0, 1e-12);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(StateVector, XFlipsBasisState) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.x(q[0]);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[0]), 1.0);
  sv.x(q[0]);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[0]), 0.0);
}

TEST(StateVector, HadamardCreatesEqualSuperposition) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.h(q[0]);
  EXPECT_NEAR(sv.probability_one(q[0]), 0.5, 1e-12);
  EXPECT_NEAR(exp_x(sv, q[0]), 1.0, 1e-12);  // |+> state
  sv.h(q[0]);
  EXPECT_NEAR(sv.probability_one(q[0]), 0.0, 1e-12);
}

TEST(StateVector, PauliAlgebraHZHEqualsX) {
  // HZH = X as an operational identity.
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.h(q[0]);
  sv.z(q[0]);
  sv.h(q[0]);
  EXPECT_NEAR(sv.probability_one(q[0]), 1.0, 1e-12);
}

TEST(StateVector, SGateIsSqrtZ) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.h(q[0]);
  sv.s(q[0]);
  sv.s(q[0]);
  sv.h(q[0]);  // HZH|0> = X|0> = |1>
  EXPECT_NEAR(sv.probability_one(q[0]), 1.0, 1e-12);
}

TEST(StateVector, TGateIsSqrtS) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.h(q[0]);
  sv.t(q[0]);
  sv.t(q[0]);
  sv.sdg(q[0]);
  sv.h(q[0]);  // T^2 S^-1 = I on |+>
  EXPECT_NEAR(sv.probability_one(q[0]), 0.0, 1e-12);
}

TEST(StateVector, DaggersInvertGates) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.t(q[0]);
  sv.tdg(q[0]);
  sv.s(q[0]);
  sv.sdg(q[0]);
  EXPECT_NEAR(sv.probability_one(q[0]), 0.0, 1e-12);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(StateVector, RotationBlochVectorMatchesAnalyticForm) {
  const double theta = 0.7331;
  const double phi = 2.1;
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  // Ry(theta) then Rz(phi): Bloch vector (sin t cos p, sin t sin p, cos t).
  sv.ry(q[0], theta);
  sv.rz(q[0], phi);
  EXPECT_NEAR(exp_z(sv, q[0]), std::cos(theta), 1e-12);
  EXPECT_NEAR(exp_x(sv, q[0]), std::sin(theta) * std::cos(phi), 1e-12);
  EXPECT_NEAR(exp_y(sv, q[0]), std::sin(theta) * std::sin(phi), 1e-12);
}

TEST(StateVector, RxOnZeroGivesExpectedProbability) {
  const double theta = 1.234;
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.rx(q[0], theta);
  EXPECT_NEAR(sv.probability_one(q[0]), std::sin(theta / 2) * std::sin(theta / 2),
              1e-12);
}

TEST(StateVector, CnotComputesParity) {
  sim::StateVector sv;
  const auto q = sv.allocate(2);
  sv.x(q[0]);
  sv.cnot(q[0], q[1]);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[1]), 1.0);
  sv.cnot(q[0], q[1]);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[1]), 0.0);
}

TEST(StateVector, BellPairHasPerfectZZandXXCorrelation) {
  sim::StateVector sv;
  const auto q = sv.allocate(2);
  sv.h(q[0]);
  sv.cnot(q[0], q[1]);
  const std::pair<sim::QubitId, char> zz[] = {{q[0], 'Z'}, {q[1], 'Z'}};
  const std::pair<sim::QubitId, char> xx[] = {{q[0], 'X'}, {q[1], 'X'}};
  const std::pair<sim::QubitId, char> yy[] = {{q[0], 'Y'}, {q[1], 'Y'}};
  EXPECT_NEAR(sv.expectation(zz), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation(xx), 1.0, 1e-12);
  EXPECT_NEAR(sv.expectation(yy), -1.0, 1e-12);  // |Phi+> has <YY> = -1
}

TEST(StateVector, CnotCzHadamardIdentity) {
  // Fig. 1(a): CNOT = (I (x) H) CZ (I (x) H).
  sim::StateVector a, b;
  const auto qa = a.allocate(2);
  const auto qb = b.allocate(2);
  // Prepare identical nontrivial states.
  a.ry(qa[0], 0.9);
  a.ry(qa[1], 0.4);
  b.ry(qb[0], 0.9);
  b.ry(qb[1], 0.4);
  a.cnot(qa[0], qa[1]);
  b.h(qb[1]);
  b.cz(qb[0], qb[1]);
  b.h(qb[1]);
  for (int bits = 0; bits < 4; ++bits) {
    const sim::QubitId order_a[] = {qa[0], qa[1]};
    const sim::QubitId order_b[] = {qb[0], qb[1]};
    const bool vals[] = {(bits & 1) != 0, (bits & 2) != 0};
    const Complex amp_a = a.amplitude(order_a, vals);
    const Complex amp_b = b.amplitude(order_b, vals);
    EXPECT_NEAR(std::abs(amp_a - amp_b), 0.0, 1e-12) << "bits=" << bits;
  }
}

TEST(StateVector, ToffoliFiresOnlyOnBothControls) {
  sim::StateVector sv;
  const auto q = sv.allocate(3);
  sv.x(q[0]);
  sv.toffoli(q[0], q[1], q[2]);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[2]), 0.0);
  sv.x(q[1]);
  sv.toffoli(q[0], q[1], q[2]);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[2]), 1.0);
}

TEST(StateVector, SwapExchangesStates) {
  sim::StateVector sv;
  const auto q = sv.allocate(2);
  sv.ry(q[0], 1.1);
  sv.swap(q[0], q[1]);
  EXPECT_NEAR(sv.probability_one(q[0]), 0.0, 1e-12);
  EXPECT_NEAR(sv.probability_one(q[1]),
              std::sin(0.55) * std::sin(0.55), 1e-12);
}

TEST(StateVector, MultiControlledGate) {
  sim::StateVector sv;
  const auto q = sv.allocate(4);
  sv.x(q[0]);
  sv.x(q[1]);
  sv.x(q[2]);
  const sim::QubitId controls[] = {q[0], q[1], q[2]};
  sv.apply_controlled(sim::gate_x(), controls, q[3]);
  EXPECT_DOUBLE_EQ(sv.probability_one(q[3]), 1.0);
}

TEST(StateVector, AllocationInterleavedWithGatesKeepsHandlesStable) {
  sim::StateVector sv;
  const auto a = sv.allocate(1);
  sv.x(a[0]);
  const auto b = sv.allocate(2);
  sv.cnot(a[0], b[1]);
  EXPECT_DOUBLE_EQ(sv.probability_one(b[1]), 1.0);
  EXPECT_DOUBLE_EQ(sv.probability_one(b[0]), 0.0);
  // Deallocate the middle qubit; handles a[0], b[1] must stay valid.
  sv.deallocate(b[0]);
  EXPECT_DOUBLE_EQ(sv.probability_one(a[0]), 1.0);
  EXPECT_DOUBLE_EQ(sv.probability_one(b[1]), 1.0);
  EXPECT_EQ(sv.num_qubits(), 2u);
}

namespace {

/// Index with `bit` spliced in at `pos` (independent of kernels.hpp).
std::size_t splice(std::size_t k, std::size_t pos, bool bit) {
  const std::size_t low = k & ((std::size_t{1} << pos) - 1);
  return ((k >> pos) << (pos + 1)) | (std::size_t{bit} << pos) | low;
}

/// P[1] at `pos` summed the way chunked_reduce fixes it: over compressed
/// indices in kReduceChunk chunks, sequential inside a chunk, partials
/// added in chunk order.
double naive_p1(const std::vector<Complex>& a, std::size_t pos) {
  const std::size_t half = a.size() / 2;
  double total = 0.0;
  for (std::size_t c = 0; c < half; c += sim::kReduceChunk) {
    double part = 0.0;
    for (std::size_t k = c; k < std::min(half, c + sim::kReduceChunk); ++k) {
      part += std::norm(a[splice(k, pos, true)]);
    }
    total += part;
  }
  return total;
}

/// Seeded random entangled state on `n` qubits (no amplitude is special).
std::vector<sim::QubitId> random_state(sim::StateVector& sv, std::size_t n) {
  const auto q = sv.allocate(n);
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  for (std::size_t i = 0; i < n; ++i) sv.ry(q[i], angle(rng));
  for (std::size_t i = 0; i + 1 < n; ++i) sv.cnot(q[i], q[i + 1]);
  for (std::size_t i = 0; i < n; ++i) {
    sv.rz(q[i], angle(rng));
    sv.ry(q[i], angle(rng));
  }
  sv.cnot(q[n - 1], q[0]);
  return q;
}

}  // namespace

TEST(StateVector, MeasureAndReleaseMatchNaiveModelAtEveryPosition) {
  // n = 17 makes the sweeps reach kMinParallel, so 4 lanes really split.
  for (const std::size_t n : {std::size_t{5}, std::size_t{17}}) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      bool seen[2] = {false, false};
      for (std::uint64_t seed = 1; seed <= 64 && !(seen[0] && seen[1]);
           ++seed) {
        std::vector<Complex> after[2];
        bool outcome[2] = {};
        for (const unsigned threads : {1U, 4U}) {
          sim::StateVector sv(seed);
          sv.set_num_threads(threads);
          const auto q = random_state(sv, n);
          const std::vector<Complex> before = sv.amplitudes();
          const double p1 = naive_p1(before, pos);
          ASSERT_EQ(sv.probability_one(q[pos]), p1)
              << "n=" << n << " pos=" << pos;
          const bool b = sv.release(q[pos]);
          const double scale = 1.0 / std::sqrt(b ? p1 : 1.0 - p1);
          std::vector<Complex> want(before.size() / 2);
          for (std::size_t o = 0; o < want.size(); ++o) {
            want[o] = before[splice(o, pos, b)];
            want[o] *= scale;
          }
          const auto& got = sv.amplitudes();
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t o = 0; o < want.size(); ++o) {
            ASSERT_EQ(got[o], want[o])
                << "n=" << n << " pos=" << pos << " amplitude " << o;
          }
          after[threads == 4] = got;
          outcome[threads == 4] = b;
          seen[b] = true;
        }
        ASSERT_EQ(outcome[0], outcome[1]);
        ASSERT_EQ(after[0], after[1]);
      }
      EXPECT_TRUE(seen[0] && seen[1]) << "n=" << n << " pos=" << pos;
    }
  }
}

TEST(StateVector, GrowAfterShrinkReusesTheBuffer) {
  constexpr std::size_t kBase = 10;
  sim::StateVector sv;
  const auto q = sv.allocate(kBase);
  sv.h(q[3]);
  const auto a = sv.allocate(1);  // peak: kBase + 1 qubits
  const Complex* buffer = sv.amplitudes().data();
  sv.deallocate(a[0]);
  EXPECT_EQ(sv.amplitudes().data(), buffer);
  const auto b = sv.allocate(1);
  EXPECT_EQ(sv.amplitudes().data(), buffer);
  EXPECT_LE(sv.amplitudes().capacity(), std::size_t{1} << (kBase + 1));
  // The regrown top half is zero again: the fresh qubit is |0>.
  EXPECT_EQ(sv.probability_one(b[0]), 0.0);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(StateVector, DeallocateNonZeroQubitThrows) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.x(q[0]);
  EXPECT_THROW(sv.deallocate(q[0]), sim::SimulatorError);
}

TEST(StateVector, DeallocateClassicalAcceptsOneRejectsSuperposition) {
  sim::StateVector sv;
  const auto q = sv.allocate(2);
  sv.x(q[0]);
  sv.deallocate_classical(q[0]);  // |1> is fine
  EXPECT_EQ(sv.num_qubits(), 1u);
  sv.h(q[1]);
  EXPECT_THROW(sv.deallocate_classical(q[1]), sim::SimulatorError);
}

TEST(StateVector, UnknownHandleThrows) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  sv.deallocate(q[0]);
  EXPECT_THROW(sv.x(q[0]), sim::SimulatorError);
  EXPECT_THROW(sv.probability_one(q[0]), sim::SimulatorError);
}

TEST(StateVector, ControlEqualsTargetThrows) {
  sim::StateVector sv;
  const auto q = sv.allocate(1);
  EXPECT_THROW(sv.cnot(q[0], q[0]), sim::SimulatorError);
}

TEST(StateVector, GhzExpectationValues) {
  sim::StateVector sv;
  const auto q = sv.allocate(3);
  sv.h(q[0]);
  sv.cnot(q[0], q[1]);
  sv.cnot(q[1], q[2]);
  const std::pair<sim::QubitId, char> zzz[] = {
      {q[0], 'Z'}, {q[1], 'Z'}, {q[2], 'Z'}};
  const std::pair<sim::QubitId, char> xxx[] = {
      {q[0], 'X'}, {q[1], 'X'}, {q[2], 'X'}};
  EXPECT_NEAR(sv.expectation(zzz), 0.0, 1e-12);
  EXPECT_NEAR(sv.expectation(xxx), 1.0, 1e-12);
}

TEST(StateVector, NormPreservedOverLongRandomCircuit) {
  sim::StateVector sv(12345);
  const auto q = sv.allocate(6);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> angle(-3.14, 3.14);
  std::uniform_int_distribution<std::size_t> pick(0, 5);
  for (int step = 0; step < 200; ++step) {
    const auto i = pick(rng);
    auto j = pick(rng);
    while (j == i) j = pick(rng);
    sv.ry(q[i], angle(rng));
    sv.rz(q[j], angle(rng));
    sv.cnot(q[i], q[j]);
  }
  EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

TEST(StateVector, MultithreadedGatesMatchSerialExactly) {
  // The paper's prototype uses multi-threading; our parallel path must be
  // bit-identical to the serial one.
  sim::StateVector serial(3), threaded(3);
  threaded.set_num_threads(4);
  const auto qs = serial.allocate(17);
  const auto qt = threaded.allocate(17);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> angle(-3.0, 3.0);
  std::uniform_int_distribution<std::size_t> pick(0, 16);
  for (int step = 0; step < 40; ++step) {
    const auto i = pick(rng);
    auto j = pick(rng);
    while (j == i) j = pick(rng);
    const double a = angle(rng);
    serial.ry(qs[i], a);
    threaded.ry(qt[i], a);
    serial.cnot(qs[i], qs[j]);
    threaded.cnot(qt[i], qt[j]);
  }
  const auto& sa = serial.amplitudes();
  const auto& ta = threaded.amplitudes();
  ASSERT_EQ(sa.size(), ta.size());
  for (std::size_t k = 0; k < sa.size(); ++k) {
    ASSERT_EQ(sa[k], ta[k]) << "amplitude " << k;
  }
}

TEST(StateVector, ThreadCountZeroIsClampedToOne) {
  sim::StateVector sv;
  sv.set_num_threads(0);
  EXPECT_EQ(sv.num_threads(), 1u);
}

TEST(StateVector, PauliRotationMatchesGateDecomposition) {
  // exp(-it Z0 Z1) == CNOT(0,1) Rz(2t on 1) CNOT(0,1).
  sim::StateVector direct, gates;
  const auto qd = direct.allocate(2);
  const auto qg = gates.allocate(2);
  for (int k = 0; k < 2; ++k) {
    direct.ry(qd[static_cast<std::size_t>(k)], 0.7 + 0.3 * k);
    gates.ry(qg[static_cast<std::size_t>(k)], 0.7 + 0.3 * k);
  }
  const double t = 0.42;
  const std::pair<sim::QubitId, char> zz[] = {{qd[0], 'Z'}, {qd[1], 'Z'}};
  direct.apply_pauli_rotation(zz, t);
  gates.cnot(qg[0], qg[1]);
  gates.rz(qg[1], 2 * t);
  gates.cnot(qg[0], qg[1]);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(std::abs(direct.amplitudes()[k] - gates.amplitudes()[k]),
                0.0, 1e-12)
        << k;
  }
}

TEST(StateVector, PauliRotationXYMatchesConjugatedForm) {
  // exp(-it X0 Y1) == V^ exp(-it Z0 Z1) V with V = H0 (Sdg H)1.
  sim::StateVector direct, conj;
  const auto qd = direct.allocate(2);
  const auto qc = conj.allocate(2);
  for (int k = 0; k < 2; ++k) {
    direct.ry(qd[static_cast<std::size_t>(k)], 0.5 + 0.4 * k);
    conj.ry(qc[static_cast<std::size_t>(k)], 0.5 + 0.4 * k);
  }
  const double t = 0.31;
  const std::pair<sim::QubitId, char> xy[] = {{qd[0], 'X'}, {qd[1], 'Y'}};
  direct.apply_pauli_rotation(xy, t);
  conj.h(qc[0]);
  conj.sdg(qc[1]);
  conj.h(qc[1]);
  const std::pair<sim::QubitId, char> zz[] = {{qc[0], 'Z'}, {qc[1], 'Z'}};
  conj.apply_pauli_rotation(zz, t);
  conj.h(qc[1]);
  conj.s(qc[1]);
  conj.h(qc[0]);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(std::abs(direct.amplitudes()[k] - conj.amplitudes()[k]), 0.0,
                1e-12)
        << k;
  }
}
