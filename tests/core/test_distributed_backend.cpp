// Multi-process tests for the distributed state-vector backend. Every
// "process" is a thread owning the exact per-process stack a qmpirun-forked
// rank process runs — HubClient, SocketTransport, DistSimClient replica —
// so the suite exercises root-sequenced op fan-out, slab exchange,
// measurement consensus, rank-death teardown, and both routing modes
// (peer mesh and QMPI_P2P=off hub fallback) hermetically in one binary.
//
// Parity contract (the seeded-RNG contract of the distributed design):
// with rank-serialized measurement order, the same program on the same
// seed must record identical outcomes on the serial in-process backend and
// on distributed replicas at 1, 2, and 4 processes. The hub services in
// these jobs count (and reject) any quantum op that reaches them, so every
// run here also proves "the hub moved zero amplitudes" structurally.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "classical/comm.hpp"
#include "classical/error.hpp"
#include "classical/runtime.hpp"
#include "classical/socket_transport.hpp"
#include "core/qmpi.hpp"
#include "core/sim_dist.hpp"
#include "sim/shard_exchange.hpp"

using namespace qmpi;
using namespace qmpi::classical;

namespace {

/// Hub with distributed-mode services (no backend; any quantum op is a
/// routing bug and is counted then rejected), served on its own thread.
struct DistTestHub {
  explicit DistTestHub(int nprocs) : hub(nprocs, 0, make_services()) {
    server = std::thread([this] { hub.serve(); });
  }
  ~DistTestHub() {
    hub.stop();
    server.join();
  }
  Hub::Services make_services() {
    Hub::Services s;
    s.reset = [](const RunConfig&) {};
    s.sim = [this](std::span<const std::byte>) -> std::vector<std::byte> {
      ++sim_ops;
      throw QmpiError("quantum op reached the hub in distributed mode");
    };
    return s;
  }
  Hub hub;
  std::thread server;
  std::atomic<std::uint64_t> sim_ops{0};
};

constexpr std::uint64_t kSeed = 424242;

/// Runs `rank_fn` as an nprocs-process distributed job (threads standing in
/// for processes) and returns the number of quantum ops that reached the
/// hub (always expected to be 0). Rethrows the job's root-cause error the
/// way the real tcp harness does: a concrete rank failure wins over the
/// secondary ShutdownErrors it causes, and an all-secondary outcome becomes
/// a QmpiError carrying the hub's abort reason.
std::uint64_t run_distributed_job(
    int nprocs, int num_ranks, bool p2p,
    const std::function<void(Context&)>& rank_fn) {
  DistTestHub th(nprocs);
  const int sim_world = std::min(nprocs, num_ranks);
  const unsigned shards = std::bit_ceil(static_cast<unsigned>(sim_world));
  std::vector<std::thread> procs;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    procs.emplace_back([&, p] {
      try {
        HubClient client("127.0.0.1", th.hub.port(), p);
        SocketTransport transport(client, num_ranks, p2p);
        std::shared_ptr<sim::SimClient> sim;
        if (p < sim_world) {
          sim = std::make_shared<DistSimClient>(transport, num_ranks,
                                                sim_world, p, shards, kSeed,
                                                /*sim_threads=*/1);
        }
        RunConfig cfg;
        cfg.num_ranks = static_cast<std::uint32_t>(num_ranks);
        cfg.seed = kSeed;
        cfg.backend = static_cast<std::uint8_t>(sim::BackendKind::kDistributed);
        cfg.num_shards = shards;
        cfg.sim_threads = 1;
        client.begin_run(cfg);

        try {
          classical::Runtime::run(transport, [&](Comm& world) {
            Context ctx(world, sim, nullptr);
            rank_fn(ctx);
            ctx.sim().fence();
            ctx.classical_comm().barrier();
          });
        } catch (const ShutdownError&) {
          throw QmpiError("QMPI job aborted: " + client.dead_reason());
        }
        client.end_run({});
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
      }
    });
  }
  for (auto& t : procs) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return th.sim_ops.load();
}

struct Observed {
  std::map<int, std::vector<int>> outcomes;  ///< measured bits, per rank
};

/// A 4-rank program crossing every distributed seam: local gate streams,
/// EPR establishment between neighbour ranks (slab exchange when the pair
/// spans processes), teleportation, and measurement + collapse + qubit
/// dealloc — with all RNG-consuming measurements serialized by rank via
/// barriers so the draw order (and thus every outcome) is deterministic
/// for a fixed seed on every backend and process count.
void parity_program(Context& ctx, Observed& obs, std::mutex& mu) {
  const int me = ctx.rank();
  const int n = ctx.size();
  std::vector<int> outs;

  QubitArray q = ctx.alloc_qmem(2);
  ctx.h(q[0]);
  ctx.rz(q[0], 0.3 * (me + 1));
  ctx.cnot(q[0], q[1]);
  ctx.ry(q[1], 0.15 * (me + 1));

  // Neighbour EPR ring: even ranks prepare toward the next rank. Both
  // halves measure equal bits (Bell pair), checked below cross-rank.
  QubitArray e = ctx.alloc_qmem(1);
  const int partner = me % 2 == 0 ? (me + 1) % n : (me + n - 1) % n;
  ctx.prepare_epr(e[0], partner, /*tag=*/7);

  // Rank-serialized measurement: one rank at a time consumes RNG draws.
  int epr_bit = -1;
  for (int r = 0; r < n; ++r) {
    if (r == me) {
      outs.push_back(ctx.measure(q[0]) ? 1 : 0);
      epr_bit = ctx.measure(e[0]) ? 1 : 0;
      outs.push_back(epr_bit);
      outs.push_back(ctx.measure(q[1]) ? 1 : 0);
    }
    ctx.barrier();
  }

  // Measurement consensus across the pair: both halves of an EPR pair
  // collapse to the same bit, even when the halves live in different
  // processes' replicas.
  ctx.classical_comm().send(epr_bit, partner, 21);
  const int partner_bit = ctx.classical_comm().recv<int>(partner, 21);
  EXPECT_EQ(partner_bit, epr_bit) << "rank " << me;

  ctx.free_qmem(e.data(), 1);
  ctx.free_qmem(q.data(), 2);

  const std::lock_guard<std::mutex> lock(mu);
  obs.outcomes[me] = std::move(outs);
}

Observed run_distributed_program(int nprocs, bool p2p,
                                 std::uint64_t* hub_ops = nullptr) {
  Observed obs;
  std::mutex mu;
  const std::uint64_t ops = run_distributed_job(
      nprocs, /*num_ranks=*/4, p2p,
      [&](Context& ctx) { parity_program(ctx, obs, mu); });
  if (hub_ops != nullptr) *hub_ops = ops;
  return obs;
}

Observed run_serial_reference() {
  Observed obs;
  std::mutex mu;
  JobOptions opts;
  opts.num_ranks = 4;
  opts.seed = kSeed;
  opts.backend = sim::BackendKind::kSerial;
  run(opts, [&](Context& ctx) { parity_program(ctx, obs, mu); });
  return obs;
}

}  // namespace

// ------------------------------------------------------ slice addressing ---

TEST(SliceAddressing, BlocksAreContiguousCompleteAndOwnerConsistent) {
  for (const unsigned world : {1u, 2u, 3u, 4u, 5u, 8u}) {
    for (const unsigned active : {1u, 2u, 4u, 8u, 16u}) {
      if (active < world) continue;  // fewer slices than owners never occurs
      unsigned covered = 0;
      for (unsigned r = 0; r < world; ++r) {
        const auto [begin, end] = sim::slice_block(world, r, active);
        EXPECT_EQ(begin, covered) << "world=" << world << " active=" << active;
        for (unsigned s = begin; s < end; ++s) {
          EXPECT_EQ(sim::slice_owner(world, active, s), r);
        }
        covered = end;
      }
      EXPECT_EQ(covered, active) << "world=" << world << " active=" << active;
    }
  }
}

TEST(SliceAddressing, SingleProcessOwnsEverySlice) {
  for (const unsigned active : {1u, 2u, 8u, 64u}) {
    const auto [begin, end] = sim::slice_block(1, 0, active);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, active);
  }
}

// ------------------------------------------------------------- parity ------

TEST(DistributedBackend, MeasurementOrderingMatchesSerialAcrossWorldSizes) {
  const Observed serial = run_serial_reference();
  ASSERT_EQ(serial.outcomes.size(), 4u);
  for (const int nprocs : {1, 2, 4}) {
    std::uint64_t hub_ops = ~0ull;
    const Observed dist = run_distributed_program(nprocs, /*p2p=*/true,
                                                  &hub_ops);
    EXPECT_EQ(hub_ops, 0u) << "nprocs=" << nprocs;
    EXPECT_EQ(dist.outcomes, serial.outcomes) << "nprocs=" << nprocs;
  }
}

TEST(DistributedBackend, HubFallbackRoutingMatchesPeerMesh) {
  // QMPI_P2P=off equivalent: no peer mesh, every sim-plane message rides
  // the hub's classical kPost/kDeliver path — and still, zero quantum ops
  // may reach the hub's (absent) backend.
  const Observed serial = run_serial_reference();
  for (const int nprocs : {2, 4}) {
    std::uint64_t hub_ops = ~0ull;
    const Observed dist = run_distributed_program(nprocs, /*p2p=*/false,
                                                  &hub_ops);
    EXPECT_EQ(hub_ops, 0u) << "nprocs=" << nprocs;
    EXPECT_EQ(dist.outcomes, serial.outcomes) << "nprocs=" << nprocs;
  }
}

TEST(DistributedBackend, DynamicAllocationKeepsReplicasConverged) {
  // Grow and shrink the register across a slab-exchange boundary: repeated
  // alloc/entangle/measure/dealloc cycles force the sharded layout through
  // different active-slice counts while replicas must stay in lockstep.
  for (const int nprocs : {2, 4}) {
    const std::uint64_t hub_ops = run_distributed_job(
        nprocs, /*num_ranks=*/2, /*p2p=*/true, [](Context& ctx) {
          std::vector<int> bits;
          for (int round = 0; round < 3; ++round) {
            QubitArray q = ctx.alloc_qmem(3);
            ctx.h(q[0]);
            ctx.cnot(q[0], q[1]);
            ctx.cnot(q[1], q[2]);
            for (int r = 0; r < ctx.size(); ++r) {
              if (r == ctx.rank()) {
                const bool a = ctx.measure(q[0]);
                const bool b = ctx.measure(q[1]);
                const bool c = ctx.measure(q[2]);
                EXPECT_EQ(a, b);  // GHZ collapse: all bits agree
                EXPECT_EQ(b, c);
                bits.push_back(a ? 1 : 0);
              }
              ctx.barrier();
            }
            ctx.free_qmem(q.data(), 3);
          }
        });
    EXPECT_EQ(hub_ops, 0u);
  }
}

// ------------------------------------------------------------- failure -----

TEST(DistributedBackend, MidRunRankDeathSurfacesTypedErrorWithoutHanging) {
  // Rank 1 dies after the job is warmed up (entangled state, pending ops
  // on every replica). Every process must unwind with a typed error — the
  // root cause on the failing process, a QmpiError carrying the abort
  // reason elsewhere — and nobody may hang in a slab take or a fence.
  try {
    run_distributed_job(2, /*num_ranks=*/2, /*p2p=*/true, [](Context& ctx) {
      QubitArray q = ctx.alloc_qmem(2);
      ctx.h(q[0]);
      ctx.cnot(q[0], q[1]);
      ctx.sim().fence();
      if (ctx.rank() == 1) {
        throw QmpiError("rank 1 gives up deliberately");
      }
      // The surviving rank blocks on a message the dead rank never sends;
      // teardown must convert this wait into ShutdownError, not a hang.
      (void)ctx.classical_comm().recv<int>(1, 33);
    });
    FAIL() << "job with a dead rank completed";
  } catch (const QmpiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

TEST(DistributedBackend, BackendErrorsKeepJobAliveAndAttributed) {
  // A rejected op (freeing an entangled qubit) must surface as a typed
  // simulator error on the offending rank while every replica stays
  // consistent — the job itself is torn down by the harness, but the
  // message must carry the backend's own diagnosis.
  try {
    run_distributed_job(2, /*num_ranks=*/2, /*p2p=*/true, [](Context& ctx) {
      if (ctx.rank() == 0) {
        QubitArray q = ctx.alloc_qmem(2);
        ctx.h(q[0]);
        ctx.cnot(q[0], q[1]);
        ctx.free_qmem(q.data(), 2);  // entangled: the backend must refuse
      }
      ctx.barrier();
    });
    FAIL() << "freeing an entangled qubit did not raise";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deallocating qubit"), std::string::npos) << what;
  }
}
