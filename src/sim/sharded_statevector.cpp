#include "sim/sharded_statevector.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "sim/kernels.hpp"
#include "sim/simd.hpp"
#include "sim/sweep.hpp"

namespace qmpi::sim {

ShardedStateVector::ShardedStateVector(unsigned num_shards,
                                       std::uint64_t seed,
                                       ExchangeProvider* exchange)
    : Backend(seed),
      shards_(num_shards == 0 ? 1 : num_shards),
      mesh_(num_shards == 0 ? 1 : num_shards) {
  if (!std::has_single_bit(shards_) || shards_ > kMaxShards) {
    throw SimulatorError("shard count must be a power of two <= " +
                         std::to_string(kMaxShards) + ", got " +
                         std::to_string(shards_));
  }
  gbits_ = static_cast<unsigned>(std::countr_zero(shards_));
  exchange_ = exchange != nullptr ? exchange : &mesh_;
  world_ = exchange_->world();
  rank_ = exchange_->rank();
  if (world_ == 0 || rank_ >= world_) {
    throw SimulatorError("exchange provider rank " + std::to_string(rank_) +
                         " outside world of " + std::to_string(world_));
  }
  slices_.resize(shards_);
  slices_[0] = {Complex(1.0, 0.0)};  // the empty register: a scalar 1
}

unsigned ShardedStateVector::active_log2() const {
  return std::min<unsigned>(gbits_,
                            static_cast<unsigned>(num_qubits()));
}

std::pair<unsigned, unsigned> ShardedStateVector::resident_range(
    unsigned active) const {
  if (world_ == 1) return {0U, active};
  return slice_block(world_, rank_, active);
}

std::vector<unsigned> ShardedStateVector::resident_parts(
    std::vector<unsigned> parts) const {
  if (world_ == 1) return parts;
  const auto [rb, re] = resident_range(1U << active_log2());
  std::erase_if(parts, [rb = rb, re = re](unsigned w) {
    return w < rb || w >= re;
  });
  return parts;
}

void ShardedStateVector::mark_partial_write() const {
  if (world_ > 1) replicated_fresh_ = false;
}

void ShardedStateVector::materialize(unsigned active) const {
  if (world_ == 1 || replicated_fresh_) return;
  // One tick for the whole gather: ticks advance identically on every rank
  // (the op stream is replayed in lockstep), so (slice, tick) uniquely
  // names each published slab across the run.
  const std::uint64_t tag = ++op_tick_;
  const auto [rb, re] = resident_range(active);
  for (unsigned w = rb; w < re; ++w) {
    exchange_->publish(w, tag, std::span<const Complex>(slices_[w]));
  }
  for (unsigned w = 0; w < active; ++w) {
    if (w >= rb && w < re) continue;
    slices_[w] = exchange_->take_published(w, tag);
  }
  replicated_fresh_ = true;
}

void ShardedStateVector::materialize_all() const {
  materialize(1U << active_log2());
}

std::size_t ShardedStateVector::local_bits() const {
  return num_qubits() - active_log2();
}

std::uint64_t ShardedStateVector::to_physical(std::uint64_t logical) const {
  if (identity_layout_) return logical;
  std::uint64_t phys = 0;
  while (logical != 0) {
    const int b = std::countr_zero(logical);
    phys |= 1ULL << l2p_[static_cast<std::size_t>(b)];
    logical &= logical - 1;
  }
  return phys;
}

std::uint64_t ShardedStateVector::to_logical(std::uint64_t physical) const {
  if (identity_layout_) return physical;
  std::uint64_t logical = 0;
  while (physical != 0) {
    const int b = std::countr_zero(physical);
    logical |= 1ULL << p2l_[static_cast<std::size_t>(b)];
    physical &= physical - 1;
  }
  return logical;
}

template <typename Fn>
void ShardedStateVector::for_shards(const std::vector<unsigned>& parts,
                                    Fn&& fn) const {
  const std::size_t count = parts.size();
  if (count == 0) return;
  const unsigned lanes =
      std::min<unsigned>(num_threads_, static_cast<unsigned>(count));
  ThreadPool::instance().parallel_for(
      lanes, count, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(parts[i]);
      });
}

std::vector<unsigned> ShardedStateVector::controlled_shards(
    unsigned shard_ctrl) const {
  const unsigned active = 1U << active_log2();
  std::vector<unsigned> parts;
  parts.reserve(active);
  for (unsigned w = 0; w < active; ++w) {
    if ((w & shard_ctrl) == shard_ctrl) parts.push_back(w);
  }
  return parts;
}

template <typename Fn>
void ShardedStateVector::for_each_amp(Fn&& fn) const {
  // Flat sweep over this rank's resident stretch of the physical index
  // space (the whole space in-process), split across lanes regardless of
  // the shard count: elementwise ops don't need per-shard dispatch and
  // shouldn't cap parallelism at the number of slices. Only writers use
  // this sweep, so non-resident replicas go stale.
  const unsigned active = 1U << active_log2();
  const auto [rb, re] = resident_range(active);
  mark_partial_write();
  if (rb == re) return;
  const std::size_t nl = local_bits();
  const std::uint64_t mask = (1ULL << nl) - 1;
  std::vector<Complex*> ptr(active);
  for (unsigned w = rb; w < re; ++w) ptr[w] = slices_[w].data();
  const std::uint64_t base = static_cast<std::uint64_t>(rb) << nl;
  parallel_sweep(num_threads_,
                 static_cast<std::size_t>(re - rb) << nl,
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t k = begin; k < end; ++k) {
                     const std::uint64_t i = base + k;
                     fn(i, ptr[i >> nl][i & mask]);
                   }
                 });
}

// --------------------------------------------------------- allocation ---

void ShardedStateVector::grow_state() {
  const std::size_t n = num_qubits();  // already includes the new qubit
  l2p_.push_back(static_cast<std::uint8_t>(n - 1));
  p2l_.push_back(static_cast<std::uint8_t>(n - 1));
  const unsigned ge_old =
      std::min<unsigned>(gbits_, static_cast<unsigned>(n - 1));
  const unsigned ge_new = std::min<unsigned>(gbits_, static_cast<unsigned>(n));
  // Changing the active slice count reshuffles slice residency, so every
  // rank must hold a fresh replica first; both growth paths below then
  // write all slices identically on all ranks, leaving the replica fresh.
  materialize(1U << ge_old);
  if (ge_new > ge_old) {
    // Still growing into the shard budget: the active slice count doubles
    // (the new top bit is a fresh shard bit), slice size is unchanged, and
    // the new top-half shards are all |...0> = zero amplitudes.
    const std::size_t m = slices_[0].size();
    for (unsigned w = 1U << ge_old; w < (1U << ge_new); ++w) {
      slices_[w].assign(m, Complex(0.0, 0.0));
    }
  } else {
    // All shards active: appending the |0> factor re-splits the flat array.
    // New slice w covers two old slices (lower half of the index space);
    // the upper half is zeros.
    const unsigned active = 1U << ge_new;
    const std::size_t m_old = slices_[0].size();
    std::vector<std::vector<Complex>> next(shards_);
    if (active == 1) {
      next[0] = std::move(slices_[0]);
      next[0].resize(m_old * 2);  // value-initialised: a memset
    } else {
      for (unsigned w = 0; w < active; ++w) {
        if (w < active / 2) {
          next[w] = std::move(slices_[2 * w]);
          next[w].insert(next[w].end(), slices_[2 * w + 1].begin(),
                         slices_[2 * w + 1].end());
        } else {
          next[w].assign(m_old * 2, Complex(0.0, 0.0));
        }
      }
    }
    slices_ = std::move(next);
  }
  local_last_use_.assign(local_bits(), 0);
}

void ShardedStateVector::remove_position_state(std::size_t pos, bool bit) {
  const std::size_t n = num_qubits();  // still the old count here
  const unsigned ge_old = active_log2();
  // Residency reshuffles with the active count (see grow_state); the
  // compaction gather below also reads across slice boundaries.
  materialize(1U << ge_old);
  const std::size_t lb_old = n - ge_old;
  const std::uint64_t mask_old = (1ULL << lb_old) - 1;
  const std::size_t pp = l2p_[pos];

  const std::size_t n_new = n - 1;
  const unsigned ge_new =
      std::min<unsigned>(gbits_, static_cast<unsigned>(n_new));
  const std::size_t lb_new = n_new - ge_new;
  const std::size_t m_new = 1ULL << lb_new;
  const std::uint64_t mask_new = m_new - 1;

  std::vector<std::vector<Complex>> next(shards_);
  std::vector<Complex*> dst(1U << ge_new);
  for (unsigned w = 0; w < (1U << ge_new); ++w) {
    next[w].resize(m_new);
    dst[w] = next[w].data();
  }
  std::vector<const Complex*> src(1U << ge_old);
  for (unsigned w = 0; w < (1U << ge_old); ++w) src[w] = slices_[w].data();

  // Gather the kept half: physical compressed index o <- the old physical
  // index with bit pp spliced back in (same formula as the serial path).
  parallel_sweep(
      num_threads_, 1ULL << n_new, [&](std::size_t begin, std::size_t end) {
        for (std::size_t o = begin; o < end; ++o) {
          const std::uint64_t i = kernels::insert_bit(o, pp, bit);
          dst[o >> lb_new][o & mask_new] = src[i >> lb_old][i & mask_old];
        }
      });
  slices_ = std::move(next);

  // Repair the relabeling maps: logical positions above `pos` and physical
  // bits above `pp` both shift down by one.
  l2p_.erase(l2p_.begin() + static_cast<std::ptrdiff_t>(pos));
  for (auto& p : l2p_) {
    if (p > pp) --p;
  }
  p2l_.resize(n_new);
  identity_layout_ = true;
  for (std::size_t q = 0; q < n_new; ++q) {
    p2l_[l2p_[q]] = static_cast<std::uint8_t>(q);
    if (l2p_[q] != q) identity_layout_ = false;
  }
  local_last_use_.assign(n_new - ge_new, 0);
}

// -------------------------------------------------------------- gates ---

void ShardedStateVector::apply_at(const Gate1Q& gate, std::size_t pos,
                                  std::uint64_t ctrl_mask) const {
  const std::size_t nl = local_bits();
  const std::uint64_t m = 1ULL << nl;
  const std::size_t pt = l2p_[pos];
  const std::uint64_t pmask = to_physical(ctrl_mask);
  const std::uint64_t local_mask = pmask & (m - 1);
  const unsigned shard_ctrl = static_cast<unsigned>(pmask >> nl);

  if (pt < nl) {
    apply_local(gate, pt, shard_ctrl, local_mask);
    return;
  }
  const unsigned target_bit = 1U << (pt - nl);
  if (kernels::classify(gate) == kernels::GateKind::kDiagonal) {
    // Diagonal on a global qubit: the shard index fixes the target bit, so
    // each slice just scales — no communication, no reason to relabel.
    apply_global_diagonal(gate, target_bit, shard_ctrl, local_mask);
    return;
  }
  if (relabel_policy_ && nl > 0) {
    // Swap the hot global bit with the coldest local bit, then the gate
    // (and any follow-ups on the same qubit) applies locally.
    relabel_swap(pt, pick_victim(nl));
    apply_at(gate, pos, ctrl_mask);
    return;
  }
  apply_global_exchange(gate, target_bit, shard_ctrl, local_mask);
}

template <typename LocalFn, typename BlockFn>
void ShardedStateVector::sweep_blocks_planned(
    std::span<const std::size_t> pos, std::uint64_t lmask,
    LocalFn&& local_fn, BlockFn&& block_fn) const {
  const std::size_t k = pos.size();
  const std::size_t nl = local_bits();

  if (relabel_policy_ && k <= nl && nl > 0) {
    // Pull every global block bit local before the sweep. The LRU pass is
    // consulted up front — victims are the coldest local bits that are not
    // themselves part of the cluster — so hot cluster qubits end up local
    // and the sweep below needs zero ShardMesh exchanges.
    std::uint64_t reserved = 0;
    for (const std::size_t p : pos) {
      const std::size_t pt = l2p_[p];
      if (pt < nl) reserved |= 1ULL << pt;
    }
    for (const std::size_t p : pos) {
      const std::size_t pt = l2p_[p];
      if (pt < nl) continue;
      const std::size_t victim = pick_victim(nl, reserved);
      relabel_swap(pt, victim);
      reserved |= 1ULL << victim;
    }
  }

  std::vector<std::size_t> pt(k);
  bool all_local = true;
  for (std::size_t j = 0; j < k; ++j) {
    pt[j] = l2p_[pos[j]];
    all_local = all_local && pt[j] < nl;
  }
  const std::uint64_t pmask = to_physical(lmask);
  const std::size_t m = 1ULL << nl;

  if (all_local) {
    // Every block bit is intra-slice: each slice sweeps independently with
    // the same per-block arithmetic as the serial backend — a fused
    // cluster whose qubits are all local costs no communication at all.
    const unsigned shard_ctrl = static_cast<unsigned>(pmask >> nl);
    const std::uint64_t local_mask = pmask & (m - 1);
    const std::uint64_t tick = ++op_tick_;
    for (std::size_t j = 0; j < k; ++j) local_last_use_[pt[j]] = tick;
    const std::vector<unsigned> parts =
        resident_parts(controlled_shards(shard_ctrl));
    mark_partial_write();
    if (parts.empty()) return;
    if (parts.size() == 1) {
      local_fn(slices_[parts[0]].data(), m,
               std::span<const std::size_t>(pt), local_mask,
               lanes_pfor(num_threads_));
      return;
    }
    for_shards(parts, [&](unsigned w) {
      local_fn(slices_[w].data(), m, std::span<const std::size_t>(pt),
               local_mask, serial_pfor);
    });
    return;
  }

  // Cross-slice fallback (relabel policy off, or more block bits than the
  // local budget): enumerate physical block bases over the whole index
  // space and gather through the slice pointers. Every amplitude belongs
  // to exactly one block, so lane splits stay race-free, and the per-block
  // arithmetic is the serial one — bit-identity is preserved. Across ranks
  // this pays a full materialize; every rank then runs the identical full
  // sweep, so the replica stays fresh.
  materialize_all();
  const unsigned active = 1U << active_log2();
  std::vector<Complex*> ptr(active);
  for (unsigned w = 0; w < active; ++w) ptr[w] = slices_[w].data();
  const std::uint64_t lmask_local = m - 1;
  const std::size_t block_size = 1ULL << k;
  kernels::IndexExpander ex;
  for (const std::size_t p : pt) ex.add_position(p);
  ex.add_mask(pmask);
  ex.base = pmask;
  std::array<std::size_t, 1ULL << kernels::kMaxBlockQubits> offs{};
  for (std::size_t b = 0; b < block_size; ++b) {
    std::size_t o = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if ((b >> j) & 1ULL) o |= 1ULL << pt[j];
    }
    offs[b] = o;
  }
  const std::size_t blocks =
      (1ULL << num_qubits()) >>
      (k + static_cast<std::size_t>(std::popcount(pmask)));
  parallel_sweep(num_threads_, blocks, [&](std::size_t begin,
                                           std::size_t end) {
    std::array<Complex, 1ULL << kernels::kMaxBlockQubits> block;
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = ex(t);
      for (std::size_t b = 0; b < block_size; ++b) {
        const std::size_t i = base | offs[b];
        block[b] = ptr[i >> nl][i & lmask_local];
      }
      block_fn(block.data());
      for (std::size_t b = 0; b < block_size; ++b) {
        const std::size_t i = base | offs[b];
        ptr[i >> nl][i & lmask_local] = block[b];
      }
    }
  });
}

void ShardedStateVector::apply_cluster_at(
    std::span<const std::size_t> pos,
    std::span<const kernels::BlockOp> ops) const {
  ++cluster_sweeps_;
  sweep_blocks_planned(
      pos, /*lmask=*/0,
      [ops](Complex* amp, std::size_t m, std::span<const std::size_t> pt,
            std::uint64_t local_mask, auto&& pfor) {
        kernels::run_block_ops_sweep(amp, m, pt, local_mask,
                                     std::forward<decltype(pfor)>(pfor), ops);
      },
      [ops](Complex* block) { kernels::run_block_ops(block, ops); });
}

void ShardedStateVector::apply_matrix_at(std::span<const Complex> matrix,
                                         std::span<const std::size_t> pos,
                                         std::uint64_t ctrl_mask) const {
  ++cluster_sweeps_;
  const Complex* mat = matrix.data();
  sweep_blocks_planned(
      pos, ctrl_mask,
      [mat](Complex* amp, std::size_t m, std::span<const std::size_t> pt,
            std::uint64_t local_mask, auto&& pfor) {
        kernels::apply_matrix_kq(amp, m, pt, mat, local_mask,
                                 std::forward<decltype(pfor)>(pfor));
      },
      kernels::matrix_block_op(mat, 1ULL << pos.size()));
}

void ShardedStateVector::apply_local(const Gate1Q& gate, std::size_t pt,
                                     unsigned shard_ctrl,
                                     std::uint64_t local_mask) const {
  local_last_use_[pt] = ++op_tick_;
  const std::size_t m = 1ULL << local_bits();
  const std::vector<unsigned> parts =
      resident_parts(controlled_shards(shard_ctrl));
  mark_partial_write();
  if (parts.empty()) return;
  if (parts.size() == 1) {
    // One participating slice: let the kernel itself span the lanes.
    kernels::apply_1q(slices_[parts[0]].data(), m, pt, gate, local_mask,
                      lanes_pfor(num_threads_));
    return;
  }
  for_shards(parts, [&](unsigned w) {
    kernels::apply_1q(slices_[w].data(), m, pt, gate, local_mask,
                      serial_pfor);
  });
}

void ShardedStateVector::apply_global_diagonal(
    const Gate1Q& gate, unsigned target_bit, unsigned shard_ctrl,
    std::uint64_t local_mask) const {
  const Complex one(1.0, 0.0);
  const Complex m00 = gate.m[0], m11 = gate.m[3];
  const std::size_t m = 1ULL << local_bits();
  std::vector<unsigned> parts;
  for (const unsigned w : resident_parts(controlled_shards(shard_ctrl))) {
    // Phase-type gates (m00 == 1) leave the target-0 half untouched; the
    // serial kernel skips those amplitudes too.
    if (m00 == one && (w & target_bit) == 0) continue;
    parts.push_back(w);
  }
  mark_partial_write();
  kernels::IndexExpander ex;
  ex.add_mask(local_mask);
  ex.base = local_mask;
  const std::size_t cnt = m >> std::popcount(local_mask);
  // One slice sweeping alone gets the worker lanes itself (like
  // apply_local); with several slices each one is a lane's whole job.
  const simd::Ops& vo = simd::ops();
  const auto scale_slice = [&](unsigned w, std::size_t begin,
                               std::size_t end) {
    const Complex factor = (w & target_bit) ? m11 : m00;
    Complex* s = slices_[w].data();
    if (local_mask == 0) {
      if (vo.isa != simd::Isa::kScalar) {
        vo.scale(s + begin, end - begin, factor);
      } else {
        for (std::size_t i = begin; i < end; ++i) s[i] *= factor;
      }
    } else {
      for (std::size_t k = begin; k < end; ++k) s[ex(k)] *= factor;
    }
  };
  if (parts.size() == 1) {
    const unsigned w = parts[0];
    parallel_sweep(num_threads_, local_mask == 0 ? m : cnt,
                   [&](std::size_t begin, std::size_t end) {
                     scale_slice(w, begin, end);
                   });
    return;
  }
  for_shards(parts, [&](unsigned w) {
    scale_slice(w, 0, local_mask == 0 ? m : cnt);
  });
}

void ShardedStateVector::apply_global_exchange(
    const Gate1Q& gate, unsigned target_bit, unsigned shard_ctrl,
    std::uint64_t local_mask) const {
  ++exchange_sweeps_;
  const std::uint64_t tag = ++op_tick_;
  const unsigned active = 1U << active_log2();
  const std::size_t m = 1ULL << local_bits();
  // Each rank exchanges on behalf of its resident participating slices:
  // it posts their slabs toward the partner slice's owner and takes the
  // partner slabs the owners posted back. A slice and its XOR partner
  // always participate together (the target bit cannot be a control), so
  // every take below has a matching post on some rank.
  const std::vector<unsigned> parts =
      resident_parts(controlled_shards(shard_ctrl));
  mark_partial_write();
  kernels::IndexExpander ex;
  ex.add_mask(local_mask);
  ex.base = local_mask;
  const std::size_t cnt = m >> std::popcount(local_mask);

  // Phase A: every participating shard posts the (control-satisfying) slab
  // its partner needs. Eager sends, so no ordering constraints.
  for_shards(parts, [&](unsigned w) {
    ShardMessage msg;
    msg.source = w;
    msg.tag = tag;
    msg.amplitudes.resize(cnt);
    const Complex* s = slices_[w].data();
    for (std::size_t k = 0; k < cnt; ++k) msg.amplitudes[k] = s[ex(k)];
    exchange_->post(w ^ target_bit, active, std::move(msg));
  });

  // Phase B: take the partner slab and combine into the local half. The
  // arithmetic per pair is exactly the serial pair kernel's, so amplitudes
  // stay bit-identical.
  const kernels::GateKind kind = kernels::classify(gate);
  const Complex one(1.0, 0.0);
  const Complex g00 = gate.m[0], g01 = gate.m[1];
  const Complex g10 = gate.m[2], g11 = gate.m[3];
  // With no local controls the slab is the whole contiguous slice, so the
  // combine runs through the vector primitives (IEEE addition commutes, so
  // f_dst*dst + f_src*src matches the scalar sum bit for bit).
  const simd::Ops& vo = simd::ops();
  const bool vcontig = local_mask == 0 &&
                       vo.isa != simd::Isa::kScalar &&
                       cnt >= simd::kMinRun;
  for_shards(parts, [&](unsigned w) {
    ShardMessage msg = exchange_->take(w, w ^ target_bit, tag);
    const Complex* theirs = msg.amplitudes.data();
    Complex* mine = slices_[w].data();
    const bool hi = (w & target_bit) != 0;
    if (kind == kernels::GateKind::kAntiDiagonal) {
      if (g01 == one && g10 == one) {
        // X / CNOT / Toffoli: a pure permutation — adopt the partner slab.
        if (vcontig) {
          std::copy_n(theirs, cnt, mine);
        } else {
          for (std::size_t k = 0; k < cnt; ++k) mine[ex(k)] = theirs[k];
        }
      } else if (vcontig) {
        vo.scale_copy(mine, theirs, cnt, hi ? g10 : g01);
      } else {
        const Complex f = hi ? g10 : g01;
        for (std::size_t k = 0; k < cnt; ++k) mine[ex(k)] = f * theirs[k];
      }
      return;
    }
    if (vcontig) {
      vo.combine(mine, theirs, cnt, /*f_dst=*/hi ? g11 : g00,
                 /*f_src=*/hi ? g10 : g01);
    } else if (hi) {
      for (std::size_t k = 0; k < cnt; ++k) {
        const std::size_t i = ex(k);
        mine[i] = g10 * theirs[k] + g11 * mine[i];
      }
    } else {
      for (std::size_t k = 0; k < cnt; ++k) {
        const std::size_t i = ex(k);
        mine[i] = g00 * mine[i] + g01 * theirs[k];
      }
    }
  });
}

void ShardedStateVector::relabel_swap(std::size_t pg, std::size_t pl) const {
  ++relabel_swaps_;
  const std::uint64_t tag = ++op_tick_;
  const std::size_t nl = local_bits();
  const std::size_t m = 1ULL << nl;
  const unsigned gbit = 1U << (pg - nl);
  const std::size_t cnt = m / 2;
  const unsigned active = 1U << active_log2();
  const auto [rb, re] = resident_range(active);
  std::vector<unsigned> parts(re - rb);
  std::iota(parts.begin(), parts.end(), rb);
  mark_partial_write();

  // Swapping bit values: element (pg=0, pl=1, rest) trades places with
  // (pg=1, pl=0, rest). Each shard sends the slab that belongs to its
  // partner and overwrites the same slots with what it receives.
  for_shards(parts, [&](unsigned w) {
    const bool send_bit = (w & gbit) == 0;  // low shard sends its pl=1 slab
    ShardMessage msg;
    msg.source = w;
    msg.tag = tag;
    msg.amplitudes.resize(cnt);
    const Complex* s = slices_[w].data();
    for (std::size_t k = 0; k < cnt; ++k) {
      msg.amplitudes[k] = s[kernels::insert_bit(k, pl, send_bit)];
    }
    exchange_->post(w ^ gbit, active, std::move(msg));
  });
  for_shards(parts, [&](unsigned w) {
    const bool slot_bit = (w & gbit) == 0;
    ShardMessage msg = exchange_->take(w, w ^ gbit, tag);
    Complex* s = slices_[w].data();
    for (std::size_t k = 0; k < cnt; ++k) {
      s[kernels::insert_bit(k, pl, slot_bit)] = msg.amplitudes[k];
    }
  });

  // The two physical bits now carry each other's logical qubit.
  const std::uint8_t la = p2l_[pl];
  const std::uint8_t lg = p2l_[pg];
  std::swap(p2l_[pl], p2l_[pg]);
  l2p_[la] = static_cast<std::uint8_t>(pg);
  l2p_[lg] = static_cast<std::uint8_t>(pl);
  identity_layout_ = true;
  for (std::size_t q = 0; q < l2p_.size(); ++q) {
    if (l2p_[q] != q) {
      identity_layout_ = false;
      break;
    }
  }
  local_last_use_[pl] = op_tick_;
}

std::size_t ShardedStateVector::pick_victim(std::size_t nl,
                                            std::uint64_t exclude) const {
  std::size_t victim = nl;  // sentinel; callers guarantee a candidate exists
  for (std::size_t b = 0; b < nl; ++b) {
    if ((exclude >> b) & 1ULL) continue;
    if (victim == nl || local_last_use_[b] < local_last_use_[victim]) {
      victim = b;
    }
  }
  return victim;
}

// ------------------------------------------------------- measurements ---

double ShardedStateVector::probability_one_at(std::size_t pos) const {
  // Reductions must add partial sums in the serial chunk order, so a
  // distributed replica is first made whole; the root rank's result is
  // then authoritative for everyone (measurement consensus), keeping the
  // seeded RNG draws — and therefore outcomes — in lockstep even if a
  // rank's arithmetic ever diverged.
  materialize_all();
  const std::size_t nl = local_bits();
  const std::uint64_t mask = (1ULL << nl) - 1;
  std::vector<const Complex*> ptr(1U << active_log2());
  for (unsigned w = 0; w < ptr.size(); ++w) ptr[w] = slices_[w].data();
  const std::size_t half = (1ULL << num_qubits()) / 2;
  // Same enumeration and chunked combine as the serial backend: compressed
  // logical indices with the target bit spliced in, so the partial sums are
  // added in the exact same order.
  const double p1 = chunked_reduce<double>(
      num_threads_, half, [&](std::size_t begin, std::size_t end) {
        double p = 0.0;
        for (std::size_t k = begin; k < end; ++k) {
          const std::uint64_t i =
              to_physical(kernels::insert_bit(k, pos, true));
          p += std::norm(ptr[i >> nl][i & mask]);
        }
        return p;
      });
  return exchange_->scalar_consensus(++op_tick_, p1);
}

void ShardedStateVector::collapse_at(std::size_t pos, bool bit,
                                     double prob_bit) {
  const std::uint64_t stride = 1ULL << l2p_[pos];
  const double scale = 1.0 / std::sqrt(prob_bit);
  for_each_amp([stride, bit, scale](std::uint64_t i, Complex& a) {
    if (static_cast<bool>(i & stride) == bit) {
      a *= scale;
    } else {
      a = Complex(0.0, 0.0);
    }
  });
}

double ShardedStateVector::parity_odd_probability(std::uint64_t mask) const {
  materialize_all();  // + root consensus below, as in probability_one_at
  const std::size_t nl = local_bits();
  const std::uint64_t lmask_local = (1ULL << nl) - 1;
  std::vector<const Complex*> ptr(1U << active_log2());
  for (unsigned w = 0; w < ptr.size(); ++w) ptr[w] = slices_[w].data();
  const std::size_t n = 1ULL << num_qubits();
  const double p = chunked_reduce<double>(
      num_threads_, n, [&](std::size_t begin, std::size_t end) {
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          if (std::popcount(i & mask) & 1U) {
            const std::uint64_t ph = to_physical(i);
            acc += std::norm(ptr[ph >> nl][ph & lmask_local]);
          }
        }
        return acc;
      });
  return exchange_->scalar_consensus(++op_tick_, p);
}

void ShardedStateVector::parity_collapse(std::uint64_t mask, bool outcome,
                                         double prob) {
  // A bit permutation preserves popcount, so the parity test can run on
  // physical indices with the physical mask.
  const std::uint64_t pmask = to_physical(mask);
  const double scale = 1.0 / std::sqrt(prob);
  for_each_amp([pmask, outcome, scale](std::uint64_t i, Complex& a) {
    const bool odd = std::popcount(i & pmask) & 1U;
    if (odd == outcome) {
      a *= scale;
    } else {
      a = Complex(0.0, 0.0);
    }
  });
}

// -------------------------------------------------------- inspection ---

Complex ShardedStateVector::amplitude_at(std::uint64_t index) const {
  materialize_all();  // the index may fall in any rank's slice block
  const std::size_t nl = local_bits();
  const std::uint64_t ph = to_physical(index);
  return slices_[ph >> nl][ph & ((1ULL << nl) - 1)];
}

double ShardedStateVector::expectation_masks(const PauliMasks& masks) const {
  materialize_all();  // i and i^flip may live in different slice blocks
  const std::uint64_t flip_mask = masks.flip;
  const std::uint64_t z_mask = masks.z;
  const Complex y_phase = kernels::i_power(masks.y_count);
  const std::size_t nl = local_bits();
  const std::uint64_t lmask_local = (1ULL << nl) - 1;
  std::vector<const Complex*> ptr(1U << active_log2());
  for (unsigned w = 0; w < ptr.size(); ++w) ptr[w] = slices_[w].data();
  const auto amp = [&](std::uint64_t logical) -> const Complex& {
    const std::uint64_t ph = to_physical(logical);
    return ptr[ph >> nl][ph & lmask_local];
  };
  const std::size_t n = 1ULL << num_qubits();
  const Complex acc = chunked_reduce<Complex>(
      num_threads_, n, [&](std::size_t begin, std::size_t end) {
        Complex partial(0.0, 0.0);
        for (std::size_t i = begin; i < end; ++i) {
          const Complex a = amp(i);
          if (a == Complex(0.0, 0.0)) continue;
          const std::size_t j = i ^ flip_mask;
          const int sign = (std::popcount(i & z_mask) & 1) ? -1 : 1;
          partial += std::conj(amp(j)) * a * double(sign) * y_phase;
        }
        return partial;
      });
  return acc.real();
}

void ShardedStateVector::pauli_rotation_masks(const PauliMasks& masks,
                                              double t) {
  const std::uint64_t flip_mask = masks.flip;
  const std::uint64_t z_mask = masks.z;
  const Complex y_phase = kernels::i_power(masks.y_count);
  const Complex c = std::cos(t);
  const Complex mis = Complex(0.0, -1.0) * std::sin(t);
  if (flip_mask == 0) {
    const Complex ph_even = c + mis;
    const Complex ph_odd = c - mis;
    const std::uint64_t z_pmask = to_physical(z_mask);
    for_each_amp([z_pmask, ph_even, ph_odd](std::uint64_t i, Complex& a) {
      a *= (std::popcount(i & z_pmask) & 1) ? ph_odd : ph_even;
    });
    return;
  }
  // Pair sweep over logical indices; pairs may straddle shards but every
  // pair is owned by exactly one loop iteration, so in-place updates stay
  // race-free under any lane split. Pairs may also straddle rank slice
  // blocks, so across ranks this materializes first and every rank runs
  // the identical full sweep (replica stays fresh).
  materialize_all();
  const std::size_t nl = local_bits();
  const std::uint64_t lmask_local = (1ULL << nl) - 1;
  std::vector<Complex*> ptr(1U << active_log2());
  for (unsigned w = 0; w < ptr.size(); ++w) ptr[w] = slices_[w].data();
  const auto amp = [&](std::uint64_t logical) -> Complex& {
    const std::uint64_t ph = to_physical(logical);
    return ptr[ph >> nl][ph & lmask_local];
  };
  const std::size_t top =
      static_cast<std::size_t>(std::bit_width(flip_mask) - 1);
  const std::size_t n = 1ULL << num_qubits();
  parallel_sweep(
      num_threads_, n / 2, [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          const std::size_t i = kernels::insert_bit(k, top, false);
          const std::size_t j = i ^ flip_mask;
          const Complex phase_i =
              y_phase * ((std::popcount(i & z_mask) & 1) ? -1.0 : 1.0);
          const Complex phase_j =
              y_phase * ((std::popcount(j & z_mask) & 1) ? -1.0 : 1.0);
          Complex& ai = amp(i);
          Complex& aj = amp(j);
          const Complex vi = ai;
          const Complex vj = aj;
          ai = c * vi + mis * phase_j * vj;
          aj = c * vj + mis * phase_i * vi;
        }
      });
}

double ShardedStateVector::norm_state() const {
  materialize_all();  // serial chunk order over the whole index space
  const std::size_t nl = local_bits();
  const std::uint64_t lmask_local = (1ULL << nl) - 1;
  std::vector<const Complex*> ptr(1U << active_log2());
  for (unsigned w = 0; w < ptr.size(); ++w) ptr[w] = slices_[w].data();
  const std::size_t n = 1ULL << num_qubits();
  const double total = chunked_reduce<double>(
      num_threads_, n, [&](std::size_t begin, std::size_t end) {
        double p = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t ph = to_physical(i);
          p += std::norm(ptr[ph >> nl][ph & lmask_local]);
        }
        return p;
      });
  return std::sqrt(total);
}

std::vector<Complex> ShardedStateVector::snapshot_state() const {
  materialize_all();
  const std::size_t nl = local_bits();
  const unsigned active = 1U << active_log2();
  const std::size_t m = 1ULL << nl;
  std::vector<Complex> out(1ULL << num_qubits());
  for (unsigned w = 0; w < active; ++w) {
    const Complex* s = slices_[w].data();
    const std::uint64_t base = static_cast<std::uint64_t>(w) << nl;
    for (std::size_t o = 0; o < m; ++o) {
      out[to_logical(base | o)] = s[o];
    }
  }
  return out;
}

}  // namespace qmpi::sim
