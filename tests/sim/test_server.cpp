// Tests for SimServer: ordering, exceptions, both execution paths (narrow
// registers on the caller's thread, wide ones on the command thread), and
// concurrent calls from many client threads (the rank-0 forwarding
// architecture of paper §6).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/server.hpp"

namespace sim = qmpi::sim;

namespace {

/// Allocates `count` qubits through the server.
std::vector<sim::QubitId> allocate(sim::SimServer& server, std::size_t count) {
  return server.call([count](sim::Backend& sv) { return sv.allocate(count); });
}

std::thread::id executing_thread(sim::SimServer& server) {
  return server.call([](sim::Backend&) { return std::this_thread::get_id(); });
}

}  // namespace

TEST(SimServer, ExecutesCallsInOrder) {
  sim::SimServer server;
  const auto q = allocate(server, 1);
  server.call([&](sim::Backend& sv) {
    sv.x(q[0]);
    return 0;
  });
  const bool one = server.call(
      [&](sim::Backend& sv) { return sv.probability_one(q[0]) > 0.5; });
  EXPECT_TRUE(one);
}

TEST(SimServer, NarrowCallsRunOnTheCallersThread) {
  sim::SimServer server;
  EXPECT_EQ(executing_thread(server), std::this_thread::get_id());
  (void)allocate(server, sim::kInlineMaxQubits);
  EXPECT_EQ(executing_thread(server), std::this_thread::get_id());
}

TEST(SimServer, WideCallsRunOnTheCommandThread) {
  sim::SimServer server;
  const auto wide = allocate(server, sim::kInlineMaxQubits + 1);
  const std::thread::id worker = executing_thread(server);
  EXPECT_NE(worker, std::this_thread::get_id());
  EXPECT_EQ(executing_thread(server), worker);
  // Freeing back to the threshold returns the calls to the caller.
  server.call([&wide](sim::Backend& sv) {
    sv.deallocate(wide.back());
    return 0;
  });
  EXPECT_EQ(executing_thread(server), std::this_thread::get_id());
}

TEST(SimServer, GrowMeasureFreeAcrossTheThresholdMatchesABareBackend) {
  // Grows from 4 qubits past kInlineMaxQubits, measures, and frees back to
  // 4, so the calls move from the caller to the command thread and back;
  // the probabilities must be bit-identical to the same program replayed
  // on a bare Backend with the same seed.
  constexpr std::size_t kBase = 4;
  constexpr std::size_t kExtra = sim::kInlineMaxQubits + 2 - kBase;
  auto program = [](auto&& run) {
    const auto base =
        run([](sim::Backend& sv) { return sv.allocate(kBase); });
    run([&base](sim::Backend& sv) {
      for (std::size_t i = 0; i < base.size(); ++i) sv.ry(base[i], 0.3 + i);
      sv.cnot(base[0], base[1]);
      return 0;
    });
    const auto extra =
        run([](sim::Backend& sv) { return sv.allocate(kExtra); });
    for (std::size_t i = 0; i < extra.size(); ++i) {
      run([&, i](sim::Backend& sv) {
        sv.h(extra[i]);
        sv.cnot(extra[i], base[i % kBase]);
        return 0;
      });
    }
    for (const sim::QubitId q : extra) {
      run([q](sim::Backend& sv) { return sv.release(q); });
    }
    std::vector<double> p;
    for (const sim::QubitId q : base) {
      p.push_back(
          run([q](sim::Backend& sv) { return sv.probability_one(q); }));
    }
    p.push_back(static_cast<double>(
        run([](sim::Backend& sv) { return sv.num_qubits(); })));
    return p;
  };

  sim::SimServer server;
  const auto served = program([&server](auto fn) { return server.call(fn); });
  const auto bare = sim::make_backend(sim::BackendKind::kSerial,
                                      sim::kDefaultSeed, 1);
  const auto replayed = program([&bare](auto fn) { return fn(*bare); });
  ASSERT_EQ(served.size(), replayed.size());
  EXPECT_EQ(served.back(), static_cast<double>(kBase));
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i], replayed[i]) << "value " << i;
  }
}

/// Both suites: the parameter is the register width the server holds
/// before the test body runs.
class SimServerPaths : public ::testing::TestWithParam<std::size_t> {};
class SimServerClients : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimServerPaths, ExceptionReachesItsCallerAndServingContinues) {
  sim::SimServer server;
  (void)allocate(server, GetParam());
  EXPECT_THROW(server.call([](sim::Backend& sv) {
                 sv.x(12345);  // unknown qubit
                 return 0;
               }),
               sim::SimulatorError);
  const auto q = allocate(server, 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(server.call([](sim::Backend& sv) { return sv.num_qubits(); }),
            GetParam() + 1);
}

TEST_P(SimServerClients, ConcurrentClientsSeeConsistentGlobalState) {
  // Starting from GetParam() qubits, each client allocates a qubit and
  // toggles it an even number of times; afterwards every qubit must be back
  // in |0>. From the wide start the register crosses kInlineMaxQubits while
  // the clients allocate, so inline and handed-off calls interleave.
  sim::SimServer server;
  (void)allocate(server, GetParam());
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 50;
  std::vector<std::thread> clients;
  std::vector<std::vector<sim::QubitId>> ids(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ids, c] {
      ids[static_cast<std::size_t>(c)] = allocate(server, 1);
      const auto q = ids[static_cast<std::size_t>(c)][0];
      for (int i = 0; i < kOpsPerClient; ++i) {
        server.call([q](sim::Backend& sv) {
          sv.x(q);
          return 0;
        });
      }
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& qs : ids) {
    const double p1 = server.call(
        [q = qs[0]](sim::Backend& sv) { return sv.probability_one(q); });
    EXPECT_DOUBLE_EQ(p1, 0.0);  // 50 toggles = even
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SimServerPaths,
                         ::testing::Values(std::size_t{0},
                                           sim::kInlineMaxQubits + 1));
// 0: every call runs inline. kInlineMaxQubits - 7: the eighth client's
// allocation takes the register past the threshold.
INSTANTIATE_TEST_SUITE_P(Widths, SimServerClients,
                         ::testing::Values(std::size_t{0},
                                           sim::kInlineMaxQubits - 7));

TEST(SimServer, HostsShardedBackendWithIdenticalResults) {
  // The server is backend-agnostic: the same calls against a sharded
  // backend must produce bit-identical state to the serial default.
  sim::SimServer serial;
  sim::SimServer sharded(sim::kDefaultSeed, /*num_threads=*/1,
                         sim::BackendKind::kSharded, /*num_shards=*/4);
  EXPECT_STREQ(serial.backend_name(), "serial");
  EXPECT_STREQ(sharded.backend_name(), "sharded");
  auto program = [](sim::SimServer& server) {
    const auto q = allocate(server, 6);
    return server.call([&q](sim::Backend& sv) {
      sv.h(q[0]);
      for (std::size_t i = 0; i + 1 < q.size(); ++i) sv.cnot(q[i], q[i + 1]);
      sv.ry(q[5], 0.3);
      (void)sv.measure(q[2]);
      return sv.snapshot();
    });
  };
  const auto a = program(serial);
  const auto b = program(sharded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "amplitude " << i;
  }
}
