// The job harness takes one path on every transport: the same seeded
// program run through run() in-process and against a resident job service
// must observe the same outcomes, resource totals and notices, and the
// harness rules (num_ranks check, distributed fallback, root-cause
// rethrow) hold on both.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/qmpi.hpp"
#include "service/job_service.hpp"

using namespace qmpi;

namespace {

constexpr int kRanks = 3;

/// What a job lets its caller observe.
struct Observed {
  std::vector<std::vector<int>> outcomes;  ///< measured bits, per rank
  JobReport report;
};

/// The service transport needs a resident qmpid: this hosts one in-process
/// on an ephemeral port, and builds the job options for either transport.
class ServiceHost {
 public:
  ServiceHost() : service_(service::ServiceConfig{}) { service_.start(); }

  JobOptions options(TransportKind transport) const {
    JobOptions o;
    o.num_ranks = kRanks;
    o.seed = 20260417;
    o.transport = transport;
    o.service_port = service_.port();
    o.service_qubits = 18;
    return o;
  }

 private:
  service::JobService service_;
};

class Harness : public ::testing::TestWithParam<TransportKind> {
 protected:
  JobOptions options() const { return host_.options(GetParam()); }

  ServiceHost host_;
};

/// EPR pairs, a copy send, a broadcast, a teleport ring and measurements.
/// Ranks measure one after another, so every measurement draws the same
/// value of the seeded RNG whatever order the rank threads run in.
Observed run_program(const JobOptions& options) {
  Observed seen;
  seen.outcomes.resize(static_cast<std::size_t>(options.num_ranks));
  seen.report = run(options, [&seen](Context& ctx) {
    const int rank = ctx.rank();
    QubitArray mine = ctx.alloc_qmem(1);
    ctx.ry(mine[0], 0.7 + 0.5 * rank);
    QubitArray epr = ctx.alloc_qmem(1);
    if (rank < 2) ctx.prepare_epr(epr[0], 1 - rank, 3);
    QubitArray copy = ctx.alloc_qmem(1);
    if (rank == 0) ctx.send(mine, 1, 2, 4);
    if (rank == 2) ctx.recv(copy, 1, 0, 4);
    QubitArray shared = ctx.alloc_qmem(1);
    if (rank == 1) ctx.ry(shared[0], 1.9);
    ctx.bcast(shared, 1, /*root=*/1);
    const int next = (rank + 1) % ctx.size();
    const int prev = (rank + ctx.size() - 1) % ctx.size();
    ctx.sendrecv_replace(mine, 1, next, prev, 5);
    for (int turn = 0; turn < ctx.size(); ++turn) {
      if (turn == rank) {
        auto& bits = seen.outcomes[static_cast<std::size_t>(rank)];
        for (const Qubit q : {mine[0], epr[0], copy[0], shared[0]}) {
          bits.push_back(ctx.measure(q) ? 1 : 0);
        }
      }
      ctx.barrier();
    }
  });
  return seen;
}

TEST(HarnessParity, ServiceMatchesInprocOnOneSeededProgram) {
  const ServiceHost host;
  const Observed a = run_program(host.options(TransportKind::kInproc));
  const Observed b = run_program(host.options(TransportKind::kService));
  EXPECT_EQ(a.outcomes, b.outcomes);
  for (std::size_t c = 0; c < static_cast<std::size_t>(OpCategory::kCount_);
       ++c) {
    EXPECT_EQ(a.report.totals_by_category[c].epr_pairs,
              b.report.totals_by_category[c].epr_pairs)
        << "category " << c;
    EXPECT_EQ(a.report.totals_by_category[c].classical_bits,
              b.report.totals_by_category[c].classical_bits)
        << "category " << c;
  }
  EXPECT_EQ(a.report.notices, b.report.notices);
  // Non-trivial work really ran: EPR, copies and teleports all counted.
  EXPECT_GT(a.report.total().epr_pairs, 0u);
  EXPECT_EQ(a.report[OpCategory::kMove].epr_pairs,
            static_cast<std::uint64_t>(kRanks));
}

TEST_P(Harness, DistributedBackendFallsBackToShardedWithANotice) {
  JobOptions o = options();
  o.backend = sim::BackendKind::kDistributed;
  const Observed seen = run_program(o);
  ASSERT_FALSE(seen.report.notices.empty());
  EXPECT_EQ(seen.report.notices.front().rfind(
                "QMPI_BACKEND=distributed needs the tcp transport; this ", 0),
            0u)
      << seen.report.notices.front();
  EXPECT_NE(seen.report.notices.front().find("ran the sharded backend"),
            std::string::npos);
}

TEST_P(Harness, NonPositiveRankCountIsRejected) {
  for (const int n : {0, -1}) {
    JobOptions o = options();
    o.num_ranks = n;
    EXPECT_THROW(run(o, [](Context&) {}), QmpiError) << "num_ranks " << n;
  }
}

TEST_P(Harness, FailingRankRethrowsTheRootCause) {
  // Rank 0 blocks on a message rank 1 never sends; rank 1's error wakes it
  // with a secondary ShutdownError, which must not mask the cause.
  try {
    run(options(), [](Context& ctx) {
      if (ctx.rank() == 1) throw std::logic_error("rank 1 gave up");
      if (ctx.rank() == 0) (void)ctx.classical_comm().recv<int>(1, 0);
    });
    FAIL() << "run() returned despite a failing rank";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 gave up");
  } catch (const std::exception& e) {
    FAIL() << "rethrew a secondary error: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, Harness,
                         ::testing::Values(TransportKind::kInproc,
                                           TransportKind::kService),
                         [](const auto& info) {
                           return info.param == TransportKind::kInproc
                                      ? std::string("inproc")
                                      : std::string("service");
                         });

}  // namespace
