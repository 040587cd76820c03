#include "core/collective_algos.hpp"
#include "core/context.hpp"
#include "core/protocol_tags.hpp"

namespace qmpi {

using detail::encode_tag;
using detail::kCollTag;

void Context::barrier() { user_comm_.barrier(); }

// ------------------------------------------------------------------ bcast ---

void Context::bcast(const Qubit* qubits, std::size_t count, int root,
                    BcastAlg alg) {
  if (size() == 1) return;
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const auto strategy = algos::select_bcast(alg, algos::env_of(*this));
  strategy.run(*this, qubits, count, root);
}

void Context::unbcast(const Qubit* qubits, std::size_t count, int root) {
  if (size() == 1) return;
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  // Every non-root measures its copy in the X basis; the parity of all
  // outcomes determines root's Z fix-up (Fig. 1b generalized). Classical
  // communication only: one bit per non-root rank.
  for (std::size_t i = 0; i < count; ++i) {
    std::uint8_t m = 0;
    if (rank() != root) {
      h(qubits[i]);
      const bool outcome = measure(qubits[i]);
      if (outcome) x(qubits[i]);  // reset copy to |0>
      m = outcome ? 1 : 0;
      tracker_->count_classical_bits(1);
      trace_event(
          {TraceEvent::Kind::kClassicalSend, rank(), root, 1, "unbcast"});
    }
    const auto parity = protocol_comm_.allreduce(
        m, [](std::uint8_t a, std::uint8_t b) -> std::uint8_t {
          return a ^ b;
        });
    if (rank() == root && (parity & 1)) z(qubits[i]);
  }
}

// ---------------------------------------------------------- gather/scatter ---

void Context::gather(const Qubit* send_qubits, std::size_t count,
                     Qubit* recv_qubits, int root) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      Qubit* slot = recv_qubits + static_cast<std::size_t>(r) * count;
      if (r == root) {
        // Local fanout: CNOT copies in the computational basis.
        for (std::size_t i = 0; i < count; ++i) cnot(send_qubits[i], slot[i]);
      } else {
        for (std::size_t i = 0; i < count; ++i)
          recv_one(slot[i], r, kCollTag);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      send_one(send_qubits[i], root, kCollTag);
  }
}

void Context::ungather(const Qubit* send_qubits, std::size_t count,
                       Qubit* recv_qubits, int root) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      Qubit* slot = recv_qubits + static_cast<std::size_t>(r) * count;
      if (r == root) {
        for (std::size_t i = 0; i < count; ++i) cnot(send_qubits[i], slot[i]);
      } else {
        for (std::size_t i = 0; i < count; ++i)
          unrecv_one(slot[i], r, kCollTag);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      unsend_one(send_qubits[i], root, kCollTag);
  }
}

void Context::gatherv(const Qubit* send_qubits,
                      std::span<const std::size_t> counts, Qubit* recv_qubits,
                      int root) {
  if (counts.size() != static_cast<std::size_t>(size())) {
    throw QmpiError("gatherv: counts must have one entry per rank");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const std::size_t my_count = counts[static_cast<std::size_t>(rank())];
  if (rank() == root) {
    std::size_t offset = 0;
    for (int r = 0; r < size(); ++r) {
      const std::size_t c = counts[static_cast<std::size_t>(r)];
      Qubit* slot = recv_qubits + offset;
      if (r == root) {
        for (std::size_t i = 0; i < c; ++i) cnot(send_qubits[i], slot[i]);
      } else {
        for (std::size_t i = 0; i < c; ++i) recv_one(slot[i], r, kCollTag);
      }
      offset += c;
    }
  } else {
    for (std::size_t i = 0; i < my_count; ++i)
      send_one(send_qubits[i], root, kCollTag);
  }
}

void Context::ungatherv(const Qubit* send_qubits,
                        std::span<const std::size_t> counts,
                        Qubit* recv_qubits, int root) {
  if (counts.size() != static_cast<std::size_t>(size())) {
    throw QmpiError("ungatherv: counts must have one entry per rank");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  const std::size_t my_count = counts[static_cast<std::size_t>(rank())];
  if (rank() == root) {
    std::size_t offset = 0;
    for (int r = 0; r < size(); ++r) {
      const std::size_t c = counts[static_cast<std::size_t>(r)];
      Qubit* slot = recv_qubits + offset;
      if (r == root) {
        for (std::size_t i = 0; i < c; ++i) cnot(send_qubits[i], slot[i]);
      } else {
        for (std::size_t i = 0; i < c; ++i) unrecv_one(slot[i], r, kCollTag);
      }
      offset += c;
    }
  } else {
    for (std::size_t i = 0; i < my_count; ++i)
      unsend_one(send_qubits[i], root, kCollTag);
  }
}

void Context::scatterv(const Qubit* send_qubits,
                       std::span<const std::size_t> counts,
                       Qubit* recv_qubits, int root) {
  if (counts.size() != static_cast<std::size_t>(size())) {
    throw QmpiError("scatterv: counts must have one entry per rank");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const std::size_t my_count = counts[static_cast<std::size_t>(rank())];
  if (rank() == root) {
    std::size_t offset = 0;
    for (int r = 0; r < size(); ++r) {
      const std::size_t c = counts[static_cast<std::size_t>(r)];
      const Qubit* slot = send_qubits + offset;
      if (r == root) {
        for (std::size_t i = 0; i < c; ++i) cnot(slot[i], recv_qubits[i]);
      } else {
        for (std::size_t i = 0; i < c; ++i) send_one(slot[i], r, kCollTag);
      }
      offset += c;
    }
  } else {
    for (std::size_t i = 0; i < my_count; ++i)
      recv_one(recv_qubits[i], root, kCollTag);
  }
}

void Context::unscatterv(const Qubit* send_qubits,
                         std::span<const std::size_t> counts,
                         Qubit* recv_qubits, int root) {
  if (counts.size() != static_cast<std::size_t>(size())) {
    throw QmpiError("unscatterv: counts must have one entry per rank");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  const std::size_t my_count = counts[static_cast<std::size_t>(rank())];
  if (rank() == root) {
    std::size_t offset = 0;
    for (int r = 0; r < size(); ++r) {
      const std::size_t c = counts[static_cast<std::size_t>(r)];
      const Qubit* slot = send_qubits + offset;
      if (r == root) {
        for (std::size_t i = 0; i < c; ++i) cnot(slot[i], recv_qubits[i]);
      } else {
        for (std::size_t i = 0; i < c; ++i) unsend_one(slot[i], r, kCollTag);
      }
      offset += c;
    }
  } else {
    for (std::size_t i = 0; i < my_count; ++i)
      unrecv_one(recv_qubits[i], root, kCollTag);
  }
}

void Context::scatter(const Qubit* send_qubits, Qubit* recv_qubits,
                      std::size_t count, int root) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      const Qubit* slot = send_qubits + static_cast<std::size_t>(r) * count;
      if (r == root) {
        for (std::size_t i = 0; i < count; ++i) cnot(slot[i], recv_qubits[i]);
      } else {
        for (std::size_t i = 0; i < count; ++i)
          send_one(slot[i], r, kCollTag);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      recv_one(recv_qubits[i], root, kCollTag);
  }
}

void Context::unscatter(const Qubit* send_qubits, Qubit* recv_qubits,
                        std::size_t count, int root) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      const Qubit* slot = send_qubits + static_cast<std::size_t>(r) * count;
      if (r == root) {
        for (std::size_t i = 0; i < count; ++i) cnot(slot[i], recv_qubits[i]);
      } else {
        for (std::size_t i = 0; i < count; ++i)
          unsend_one(slot[i], r, kCollTag);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      unrecv_one(recv_qubits[i], root, kCollTag);
  }
}

void Context::allgather(const Qubit* send_qubits, std::size_t count,
                        Qubit* recv_qubits) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  // One binomial-tree broadcast per contributing rank; N(N-1) copies total.
  for (int r = 0; r < size(); ++r) {
    Qubit* slot = recv_qubits + static_cast<std::size_t>(r) * count;
    if (rank() == r) {
      for (std::size_t i = 0; i < count; ++i) cnot(send_qubits[i], slot[i]);
    }
    algos::bcast_binomial_tree(*this, slot, count, r);
  }
}

void Context::unallgather(const Qubit* send_qubits, std::size_t count,
                          Qubit* recv_qubits) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  for (int r = 0; r < size(); ++r) {
    Qubit* slot = recv_qubits + static_cast<std::size_t>(r) * count;
    // Inverse of bcast for root r, then undo the local fanout at r.
    for (std::size_t i = 0; i < count; ++i) {
      std::uint8_t m = 0;
      if (rank() != r) {
        h(slot[i]);
        const bool outcome = measure(slot[i]);
        if (outcome) x(slot[i]);
        m = outcome ? 1 : 0;
        tracker_->count_classical_bits(1);
        trace_event(
            {TraceEvent::Kind::kClassicalSend, rank(), r, 1, "unallg"});
      }
      const auto parity = protocol_comm_.allreduce(
          m, [](std::uint8_t a, std::uint8_t b) -> std::uint8_t {
            return a ^ b;
          });
      if (rank() == r) {
        if (parity & 1) z(slot[i]);
        cnot(send_qubits[i], slot[i]);
      }
    }
  }
}

// -------------------------------------------------------------- alltoall ---

void Context::alltoall(const Qubit* send_qubits, Qubit* recv_qubits,
                       std::size_t count) {
  // Rank r's block j lands in rank j's slot r: alltoallv with equal counts.
  const std::vector<std::size_t> counts(static_cast<std::size_t>(size()),
                                        count);
  alltoallv(send_qubits, counts, recv_qubits, counts);
}

void Context::unalltoall(const Qubit* send_qubits, Qubit* recv_qubits,
                         std::size_t count) {
  const std::vector<std::size_t> counts(static_cast<std::size_t>(size()),
                                        count);
  unalltoallv(send_qubits, counts, recv_qubits, counts);
}

void Context::alltoallv(const Qubit* send_qubits,
                        std::span<const std::size_t> send_counts,
                        Qubit* recv_qubits,
                        std::span<const std::size_t> recv_counts) {
  if (send_counts.size() != static_cast<std::size_t>(size()) ||
      recv_counts.size() != static_cast<std::size_t>(size())) {
    throw QmpiError("alltoallv: counts must have one entry per rank");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  auto stag = [&](int peer) {
    return encode_tag(kCollTag, peer > rank() ? 1 : 2);
  };
  auto rtag = [&](int peer) {
    return encode_tag(kCollTag, peer < rank() ? 1 : 2);
  };
  // Rank r's block j is copied into rank j's slot r. Split begin/complete/
  // data phases keep the fully cyclic exchange deadlock-free (see sendrecv).
  std::vector<std::vector<Qubit>> halves(static_cast<std::size_t>(size()));
  std::vector<std::size_t> send_off(static_cast<std::size_t>(size()), 0);
  std::vector<std::size_t> recv_off(static_cast<std::size_t>(size()), 0);
  {
    std::size_t s = 0, r = 0;
    for (int peer = 0; peer < size(); ++peer) {
      send_off[static_cast<std::size_t>(peer)] = s;
      recv_off[static_cast<std::size_t>(peer)] = r;
      s += send_counts[static_cast<std::size_t>(peer)];
      r += recv_counts[static_cast<std::size_t>(peer)];
    }
  }
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    for (std::size_t i = 0; i < send_counts[static_cast<std::size_t>(peer)];
         ++i) {
      halves[static_cast<std::size_t>(peer)].push_back(
          send_begin(peer, stag(peer)));
    }
  }
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    Qubit* in = recv_qubits + recv_off[static_cast<std::size_t>(peer)];
    for (std::size_t i = 0; i < recv_counts[static_cast<std::size_t>(peer)];
         ++i) {
      epr_begin(in[i], peer, rtag(peer));
    }
  }
  // Every pair completes before any data phase (see sendrecv).
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    for (const Qubit half : halves[static_cast<std::size_t>(peer)])
      epr_complete(half, peer, stag(peer));
    Qubit* in = recv_qubits + recv_off[static_cast<std::size_t>(peer)];
    for (std::size_t i = 0; i < recv_counts[static_cast<std::size_t>(peer)];
         ++i) {
      epr_complete(in[i], peer, rtag(peer));
    }
  }
  for (int peer = 0; peer < size(); ++peer) {
    const Qubit* out = send_qubits + send_off[static_cast<std::size_t>(peer)];
    if (peer == rank()) {
      Qubit* in = recv_qubits + recv_off[static_cast<std::size_t>(peer)];
      for (std::size_t i = 0; i < send_counts[static_cast<std::size_t>(peer)];
           ++i) {
        cnot(out[i], in[i]);
      }
      continue;
    }
    for (std::size_t i = 0; i < send_counts[static_cast<std::size_t>(peer)];
         ++i) {
      send_data(out[i], halves[static_cast<std::size_t>(peer)][i], peer,
                stag(peer));
    }
  }
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    Qubit* in = recv_qubits + recv_off[static_cast<std::size_t>(peer)];
    for (std::size_t i = 0; i < recv_counts[static_cast<std::size_t>(peer)];
         ++i) {
      recv_data(in[i], peer, rtag(peer));
    }
  }
}

void Context::unalltoallv(const Qubit* send_qubits,
                          std::span<const std::size_t> send_counts,
                          Qubit* recv_qubits,
                          std::span<const std::size_t> recv_counts) {
  if (send_counts.size() != static_cast<std::size_t>(size()) ||
      recv_counts.size() != static_cast<std::size_t>(size())) {
    throw QmpiError("unalltoallv: counts must have one entry per rank");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  std::size_t s = 0, r = 0;
  // Classical-only: unrecv all received copies (posts bits eagerly), then
  // absorb the Z fix-ups for everything we sent.
  std::vector<std::size_t> send_off(static_cast<std::size_t>(size()), 0);
  for (int peer = 0; peer < size(); ++peer) {
    send_off[static_cast<std::size_t>(peer)] = s;
    s += send_counts[static_cast<std::size_t>(peer)];
  }
  for (int peer = 0; peer < size(); ++peer) {
    Qubit* in = recv_qubits + r;
    if (peer == rank()) {
      const Qubit* out =
          send_qubits + send_off[static_cast<std::size_t>(peer)];
      for (std::size_t i = 0; i < recv_counts[static_cast<std::size_t>(peer)];
           ++i) {
        cnot(out[i], in[i]);
      }
    } else {
      for (std::size_t i = 0; i < recv_counts[static_cast<std::size_t>(peer)];
           ++i) {
        unrecv_one(in[i], peer, kCollTag);
      }
    }
    r += recv_counts[static_cast<std::size_t>(peer)];
  }
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    const Qubit* out = send_qubits + send_off[static_cast<std::size_t>(peer)];
    for (std::size_t i = 0; i < send_counts[static_cast<std::size_t>(peer)];
         ++i) {
      unsend_one(out[i], peer, kCollTag);
    }
  }
}

// -------------------------------------------------------- move collectives ---

void Context::gather_move(const Qubit* send_qubits, std::size_t count,
                          Qubit* recv_qubits, int root) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      Qubit* slot = recv_qubits + static_cast<std::size_t>(r) * count;
      if (r == root) {
        // Local move: swap the state into the destination qubits.
        for (std::size_t i = 0; i < count; ++i) {
          cnot(send_qubits[i], slot[i]);
          cnot(slot[i], send_qubits[i]);
        }
      } else {
        for (std::size_t i = 0; i < count; ++i)
          recv_move_one(slot[i], r, kCollTag);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      send_move_one(send_qubits[i], root, kCollTag);
  }
}

void Context::ungather_move(Qubit* send_qubits, std::size_t count,
                            const Qubit* recv_qubits, int root) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnmove);
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      const Qubit* slot = recv_qubits + static_cast<std::size_t>(r) * count;
      if (r == root) {
        for (std::size_t i = 0; i < count; ++i) {
          cnot(slot[i], send_qubits[i]);
          cnot(send_qubits[i], slot[i]);
        }
      } else {
        for (std::size_t i = 0; i < count; ++i)
          send_move_one(slot[i], r, kCollTag);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      recv_move_one(send_qubits[i], root, kCollTag);
  }
}

void Context::scatter_move(Qubit* send_qubits, Qubit* recv_qubits,
                           std::size_t count, int root) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      Qubit* slot = send_qubits + static_cast<std::size_t>(r) * count;
      if (r == root) {
        for (std::size_t i = 0; i < count; ++i) {
          cnot(slot[i], recv_qubits[i]);
          cnot(recv_qubits[i], slot[i]);
        }
      } else {
        for (std::size_t i = 0; i < count; ++i)
          send_move_one(slot[i], r, kCollTag);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      recv_move_one(recv_qubits[i], root, kCollTag);
  }
}

void Context::unscatter_move(Qubit* send_qubits, Qubit* recv_qubits,
                             std::size_t count, int root) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnmove);
  if (rank() == root) {
    for (int r = 0; r < size(); ++r) {
      Qubit* slot = send_qubits + static_cast<std::size_t>(r) * count;
      if (r == root) {
        for (std::size_t i = 0; i < count; ++i) {
          cnot(recv_qubits[i], slot[i]);
          cnot(slot[i], recv_qubits[i]);
        }
      } else {
        for (std::size_t i = 0; i < count; ++i)
          recv_move_one(slot[i], r, kCollTag);
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      send_move_one(recv_qubits[i], root, kCollTag);
  }
}

void Context::alltoall_move(Qubit* send_qubits, Qubit* recv_qubits,
                            std::size_t count) {
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  // Split phases as in alltoallv: all EPR initiations precede any
  // completion, and all completions precede any data phase.
  std::vector<std::vector<Qubit>> halves(static_cast<std::size_t>(size()));
  auto stag = [&](int peer) {
    return encode_tag(kCollTag, peer > rank() ? 1 : 2);
  };
  auto rtag = [&](int peer) {
    return encode_tag(kCollTag, peer < rank() ? 1 : 2);
  };
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    for (std::size_t i = 0; i < count; ++i) {
      halves[static_cast<std::size_t>(peer)].push_back(
          send_begin(peer, stag(peer)));
    }
  }
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    Qubit* in = recv_qubits + static_cast<std::size_t>(peer) * count;
    for (std::size_t i = 0; i < count; ++i)
      epr_begin(in[i], peer, rtag(peer));
  }
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    Qubit* in = recv_qubits + static_cast<std::size_t>(peer) * count;
    for (std::size_t i = 0; i < count; ++i) {
      epr_complete(halves[static_cast<std::size_t>(peer)][i], peer,
                   stag(peer));
    }
    for (std::size_t i = 0; i < count; ++i)
      epr_complete(in[i], peer, rtag(peer));
  }
  for (int peer = 0; peer < size(); ++peer) {
    Qubit* out = send_qubits + static_cast<std::size_t>(peer) * count;
    if (peer == rank()) {
      Qubit* in = recv_qubits + static_cast<std::size_t>(peer) * count;
      for (std::size_t i = 0; i < count; ++i) {
        cnot(out[i], in[i]);
        cnot(in[i], out[i]);
      }
      continue;
    }
    for (std::size_t i = 0; i < count; ++i) {
      send_move_data(out[i], halves[static_cast<std::size_t>(peer)][i], peer,
                     stag(peer));
    }
  }
  for (int peer = 0; peer < size(); ++peer) {
    if (peer == rank()) continue;
    Qubit* in = recv_qubits + static_cast<std::size_t>(peer) * count;
    for (std::size_t i = 0; i < count; ++i)
      recv_move_data(in[i], peer, rtag(peer));
  }
}

}  // namespace qmpi
