#include "sim/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/kernels.hpp"
#include "sim/simd.hpp"
#include "sim/sweep.hpp"

namespace qmpi::sim {

StateVector::StateVector(std::uint64_t seed) : Backend(seed) {
  amplitudes_ = {Complex(1.0, 0.0)};  // the empty register: a scalar 1
}

namespace {

/// End of the run holding index `i`, clipped to `end`. A run is the 2^pos
/// indices that agree on bit pos and above (low_mask = 2^pos - 1). It is
/// contiguous in memory whether the indices are flat or compressed, since
/// insert_bit keeps the bits below pos.
std::size_t run_end(std::size_t i, std::size_t end, std::size_t low_mask) {
  return std::min(end, (i | low_mask) + 1);
}

/// Below simd::kMinRun amplitudes per run, the per-run loop set-up (and
/// the memset or memmove call the compiler makes of a run's loop) costs
/// more than the run, so those positions are walked index by index.
bool short_runs(std::size_t pos) {
  return (std::size_t{1} << pos) < simd::kMinRun;
}

}  // namespace

void StateVector::grow_state() {
  // Appending a |0> factor: amplitudes double, upper half is zero. The
  // value-initialising resize zero-fills with a plain memset (the
  // fill-value overload is ~10x slower) and reuses the capacity a
  // previous remove_position_state kept.
  amplitudes_.resize(amplitudes_.size() * 2);
}

double StateVector::probability_one_at(std::size_t pos) const {
  // Sweep only the half of the state with the target bit set. Chunks and
  // the in-chunk order are over compressed indices (the order the sharded
  // engine copies); each run of them is one contiguous stretch of memory.
  const std::size_t half = amplitudes_.size() / 2;
  const Complex* amp = amplitudes_.data();
  return chunked_reduce<double>(
      num_threads_, half, [amp, pos](std::size_t begin, std::size_t end) {
        double p = 0.0;
        if (short_runs(pos)) {
          for (std::size_t k = begin; k < end; ++k) {
            p += std::norm(amp[kernels::insert_bit(k, pos, true)]);
          }
          return p;
        }
        const std::size_t low_mask = (std::size_t{1} << pos) - 1;
        for (std::size_t k = begin; k < end;) {
          const std::size_t hi = run_end(k, end, low_mask);
          const Complex* a = amp + kernels::insert_bit(k, pos, true);
          for (; k < hi; ++k) p += std::norm(*a++);
        }
        return p;
      });
}

void StateVector::remove_position_state(std::size_t pos, bool bit) {
  // Compact the kept half to the front of the same buffer, run by run.
  // Run k moves down to k * 2^pos from (2k + bit) * 2^pos, so one forward
  // pass only overwrites amplitudes it has already read, and no run's
  // source overlaps its own destination. Lanes could not share the pass:
  // a run's destination can hold an earlier run's source. The shrinking
  // resize keeps the capacity for the next grow_state.
  const std::size_t half = amplitudes_.size() / 2;
  Complex* amp = amplitudes_.data();
  if (short_runs(pos)) {
    for (std::size_t o = 0; o < half; ++o) {
      amp[o] = amp[kernels::insert_bit(o, pos, bit)];
    }
  } else {
    // With bit 0 the first run is already in place.
    const std::size_t run = std::size_t{1} << pos;
    for (std::size_t o = bit ? 0 : run; o < half; o += run) {
      std::copy_n(amp + kernels::insert_bit(o, pos, bit), run, amp + o);
    }
  }
  amplitudes_.resize(half);
}

void StateVector::apply_at(const Gate1Q& gate, std::size_t pos,
                           std::uint64_t ctrl_mask) const {
  kernels::apply_1q(amplitudes_.data(), amplitudes_.size(), pos, gate,
                    ctrl_mask, lanes_pfor(num_threads_));
}

void StateVector::apply_cluster_at(
    std::span<const std::size_t> pos,
    std::span<const kernels::BlockOp> ops) const {
  // One memory pass for the whole fused run: replay the compiled ops with
  // the exact per-gate kernel arithmetic — streaming cache-blocked chunks
  // in place when a SIMD tier is active, gather/scatter otherwise.
  kernels::run_block_ops_sweep(amplitudes_.data(), amplitudes_.size(), pos,
                               /*ctrl_mask=*/0, lanes_pfor(num_threads_),
                               ops);
}

void StateVector::apply_matrix_at(std::span<const Complex> matrix,
                                  std::span<const std::size_t> pos,
                                  std::uint64_t ctrl_mask) const {
  kernels::apply_matrix_kq(amplitudes_.data(), amplitudes_.size(), pos,
                           matrix.data(), ctrl_mask,
                           lanes_pfor(num_threads_));
}

void StateVector::collapse_at(std::size_t pos, bool bit, double prob_bit) {
  // Runs of 2^pos amplitudes alternate between bit 0 and bit 1: scale the
  // kept runs, zero the others.
  const double scale = 1.0 / std::sqrt(prob_bit);
  Complex* amp = amplitudes_.data();
  parallel_sweep(
      num_threads_, amplitudes_.size(),
      [amp, pos, bit, scale](std::size_t begin, std::size_t end) {
        if (short_runs(pos)) {
          const std::size_t stride = std::size_t{1} << pos;
          for (std::size_t i = begin; i < end; ++i) {
            if (static_cast<bool>(i & stride) == bit) {
              amp[i] *= scale;
            } else {
              amp[i] = Complex(0.0, 0.0);
            }
          }
          return;
        }
        const std::size_t low_mask = (std::size_t{1} << pos) - 1;
        for (std::size_t i = begin; i < end;) {
          const std::size_t hi = run_end(i, end, low_mask);
          if (static_cast<bool>((i >> pos) & 1U) == bit) {
            for (; i < hi; ++i) amp[i] *= scale;
          } else {
            for (; i < hi; ++i) amp[i] = Complex(0.0, 0.0);
          }
        }
      });
}

double StateVector::parity_odd_probability(std::uint64_t mask) const {
  const std::size_t n = amplitudes_.size();
  const Complex* camp = amplitudes_.data();
  return chunked_reduce<double>(
      num_threads_, n, [camp, mask](std::size_t begin, std::size_t end) {
        double p = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          if (std::popcount(i & mask) & 1U) p += std::norm(camp[i]);
        }
        return p;
      });
}

void StateVector::parity_collapse(std::uint64_t mask, bool outcome,
                                  double prob) {
  const double scale = 1.0 / std::sqrt(prob);
  Complex* amp = amplitudes_.data();
  parallel_sweep(num_threads_, amplitudes_.size(),
                 [amp, mask, outcome, scale](std::size_t begin,
                                             std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     const bool odd = std::popcount(i & mask) & 1U;
                     if (odd == outcome) {
                       amp[i] *= scale;
                     } else {
                       amp[i] = Complex(0.0, 0.0);
                     }
                   }
                 });
}

Complex StateVector::amplitude_at(std::uint64_t index) const {
  return amplitudes_[index];
}

double StateVector::expectation_masks(const PauliMasks& masks) const {
  // <psi|P|psi> = <psi|phi> with |phi> = P|psi>.
  const std::uint64_t flip_mask = masks.flip;
  const std::uint64_t z_mask = masks.z;
  // Y = i * X * Z (acting as |b> -> i^{?}): with convention
  // Y|0> = i|1>, Y|1> = -i|0>: phase = i * (-1)^b. We fold the per-Y global
  // i factor and the Z-type signs below.
  const Complex y_phase = kernels::i_power(masks.y_count);
  const std::size_t n = amplitudes_.size();
  const Complex* amp = amplitudes_.data();
  const Complex acc = chunked_reduce<Complex>(
      num_threads_, n,
      [amp, flip_mask, z_mask, y_phase](std::size_t begin, std::size_t end) {
        Complex partial(0.0, 0.0);
        for (std::size_t i = begin; i < end; ++i) {
          const Complex a = amp[i];
          if (a == Complex(0.0, 0.0)) continue;
          const std::size_t j = i ^ flip_mask;
          // Sign from Z-type masks applied to the *source* basis state i.
          const int sign = (std::popcount(i & z_mask) & 1) ? -1 : 1;
          partial += std::conj(amp[j]) * a * double(sign) * y_phase;
        }
        return partial;
      });
  return acc.real();
}

void StateVector::pauli_rotation_masks(const PauliMasks& masks, double t) {
  // exp(-i t P) = cos(t) I - i sin(t) P. Build P's action per basis state
  // (see expectation_masks for the phase bookkeeping) and combine the
  // paired amplitudes in place.
  const std::uint64_t flip_mask = masks.flip;
  const std::uint64_t z_mask = masks.z;
  const Complex y_phase = kernels::i_power(masks.y_count);
  const Complex c = std::cos(t);
  const Complex mis = Complex(0.0, -1.0) * std::sin(t);
  const std::size_t n = amplitudes_.size();
  Complex* amp = amplitudes_.data();
  if (flip_mask == 0) {
    // Diagonal: phase e^{-it(+/-1)} per basis state.
    const Complex ph_even = c + mis;
    const Complex ph_odd = c - mis;
    parallel_sweep(num_threads_, n,
                   [amp, z_mask, ph_even, ph_odd](std::size_t begin,
                                                  std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       amp[i] *=
                           (std::popcount(i & z_mask) & 1) ? ph_odd : ph_even;
                     }
                   });
    return;
  }
  // Enumerate each pair (i, i ^ flip_mask) exactly once by splicing out the
  // top flipped bit: i then has that bit 0 and j = i ^ flip_mask > i. The
  // seed's branch-rejecting `if (j < i) continue` sweep did 2x the work.
  const std::size_t top =
      static_cast<std::size_t>(std::bit_width(flip_mask) - 1);
  parallel_sweep(
      num_threads_, n / 2,
      [amp, flip_mask, z_mask, y_phase, c, mis, top](std::size_t begin,
                                                     std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          const std::size_t i = kernels::insert_bit(k, top, false);
          const std::size_t j = i ^ flip_mask;
          // P|i> = phase_i |j>, P|j> = phase_j |i>.
          const Complex phase_i =
              y_phase * ((std::popcount(i & z_mask) & 1) ? -1.0 : 1.0);
          const Complex phase_j =
              y_phase * ((std::popcount(j & z_mask) & 1) ? -1.0 : 1.0);
          const Complex ai = amp[i];
          const Complex aj = amp[j];
          amp[i] = c * ai + mis * phase_j * aj;
          amp[j] = c * aj + mis * phase_i * ai;
        }
      });
}

double StateVector::norm_state() const {
  const Complex* amp = amplitudes_.data();
  const double total = chunked_reduce<double>(
      num_threads_, amplitudes_.size(),
      [amp](std::size_t begin, std::size_t end) {
        double p = 0.0;
        for (std::size_t i = begin; i < end; ++i) p += std::norm(amp[i]);
        return p;
      });
  return std::sqrt(total);
}

std::vector<Complex> StateVector::snapshot_state() const {
  return amplitudes_;  // flat storage is already in logical order
}

}  // namespace qmpi::sim
