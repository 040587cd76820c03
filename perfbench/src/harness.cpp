// The closed loop shared by the QMPI workloads, and the SimClient
// that records spans in traced runs.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "classical/runtime.hpp"
#include "host.hpp"
#include "sim/server.hpp"
#include "sim/sim_client.hpp"
#include "sim/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using qmpi::sim::Backend;
using qmpi::sim::QubitId;
using trace::Layer;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// LocalSimClient's calls, each wrapped in a round-trip span on the calling
/// thread and an execution span on the SimServer thread. Span names start
/// with the call kind ("gate.", "query.", "alloc.").
class TracedSimClient final : public qmpi::sim::SimClient {
 public:
  explicit TracedSimClient(qmpi::sim::SimServer& server) : server_(server) {}

  std::vector<QubitId> allocate(std::size_t count) override {
    return call("alloc.allocate",
                [count](Backend& b) { return b.allocate(count); });
  }
  void deallocate_classical(std::span<const QubitId> ids) override {
    call("alloc.deallocate", [ids](Backend& b) {
      for (const QubitId id : ids) b.deallocate_classical(id);
      return 0;
    });
  }
  void apply(const qmpi::sim::Gate1Q& gate, QubitId q) override {
    call("gate.apply", [&gate, q](Backend& b) {
      b.apply(gate, q);
      return 0;
    });
  }
  void cnot(QubitId c, QubitId t) override {
    call("gate.cnot", [c, t](Backend& b) {
      b.cnot(c, t);
      return 0;
    });
  }
  void cz(QubitId c, QubitId t) override {
    call("gate.cz", [c, t](Backend& b) {
      b.cz(c, t);
      return 0;
    });
  }
  void toffoli(QubitId c0, QubitId c1, QubitId t) override {
    call("gate.toffoli", [c0, c1, t](Backend& b) {
      b.toffoli(c0, c1, t);
      return 0;
    });
  }
  bool measure(QubitId q) override {
    return call("query.measure", [q](Backend& b) { return b.measure(q); });
  }
  bool measure_x(QubitId q) override {
    return call("query.measure_x", [q](Backend& b) { return b.measure_x(q); });
  }
  bool measure_parity(std::span<const QubitId> qs) override {
    return call("query.measure_parity",
                [qs](Backend& b) { return b.measure_parity(qs); });
  }
  double probability_one(QubitId q) override {
    return call("query.probability_one",
                [q](Backend& b) { return b.probability_one(q); });
  }
  double expectation(
      std::span<const std::pair<QubitId, char>> paulis) override {
    return call("query.expectation",
                [paulis](Backend& b) { return b.expectation(paulis); });
  }
  std::size_t num_qubits() override {
    return call("query.num_qubits", [](Backend& b) { return b.num_qubits(); });
  }

  /// Widest state any call of this client left behind. Written on the
  /// server thread inside call(), read after the call's future completed.
  std::size_t peak_qubits() const { return peak_; }

 private:
  // The closures borrow the caller's arguments: call() blocks until the
  // server thread has run them.
  template <typename Fn>
  auto call(const char* name, Fn&& fn) -> std::invoke_result_t<Fn&, Backend&> {
    const trace::Scope round_trip(Layer::kSimServer, name);
    const std::uint64_t parent = round_trip.id();
    const std::uint32_t op = trace::current_op();
    return server_.call([&, parent, op](Backend& b) {
      const trace::Scope exec(Layer::kSimEngine, name, parent, op);
      auto result = fn(b);
      peak_ = std::max(peak_, b.num_qubits());
      return result;
    });
  }

  qmpi::sim::SimServer& server_;
  std::size_t peak_ = 0;
};

using Counts = qmpi::ResourceTracker::Counts;
constexpr auto kCategories = static_cast<std::size_t>(qmpi::OpCategory::kCount_);

/// qmpi::run's in-process path with TracedSimClient in place of
/// LocalSimClient. Returns the same resource totals qmpi::run reports.
qmpi::JobReport run_traced_job(const qmpi::JobOptions& options,
                               const std::function<void(qmpi::Context&)>& fn,
                               std::size_t* peak_qubits) {
  const qmpi::sim::simd::Selection simd = qmpi::sim::simd::resolve(options.simd);
  qmpi::sim::simd::set_active(simd.isa);
  qmpi::sim::SimServer server(options.seed, options.sim_threads,
                              options.backend, options.num_shards);
  const auto n = static_cast<std::size_t>(options.num_ranks);
  std::vector<std::array<Counts, kCategories>> per_rank(n);
  std::vector<std::size_t> peaks(n, 0);
  qmpi::classical::Runtime::run(options.num_ranks, [&](qmpi::classical::Comm& world) {
    auto client = std::make_shared<TracedSimClient>(server);
    qmpi::Context ctx(world, client, nullptr);
    fn(ctx);
    ctx.classical_comm().barrier();
    const auto r = static_cast<std::size_t>(ctx.rank());
    for (std::size_t c = 0; c < kCategories; ++c) {
      per_rank[r][c] = ctx.tracker()[static_cast<qmpi::OpCategory>(c)];
    }
    peaks[r] = client->peak_qubits();
  });
  qmpi::JobReport report;
  for (const auto& counts : per_rank) {
    for (std::size_t c = 0; c < kCategories; ++c) {
      report.totals_by_category[c] += counts[c];
    }
  }
  if (!simd.notice.empty()) report.notices.push_back(simd.notice);
  *peak_qubits = *std::max_element(peaks.begin(), peaks.end());
  return report;
}

}  // namespace

Phase run_qmpi_phase(const PhasePlan& plan, const MakeProgram& make) {
  Phase phase;
  qmpi::JobOptions options;
  options.num_ranks = plan.ranks;
  options.seed = plan.job_seed;

  std::vector<std::vector<std::uint8_t>> ok(static_cast<std::size_t>(plan.ranks));
  host::Control control;
  // The first set-up continues into the timed loop. The others come after
  // it, so the peak RSS read in between covers one job only.
  for (int k = 0; k < plan.setups; ++k) {
    const bool timed = k == 0;
    const auto start = std::chrono::steady_clock::now();
    auto job = [&](qmpi::Context& ctx) {
      const int rank = ctx.rank();
      trace::name_thread("rank " + std::to_string(rank));
      qmpi::classical::Comm& comm = ctx.classical_comm();
      std::unique_ptr<RankProgram> program = make(ctx);
      for (int w = 0; w < plan.warmup_ops; ++w) {
        program->op(ctx);
        (void)program->check(ctx);
      }
      comm.barrier();
      if (rank == 0) phase.setup_s.push_back(seconds_since(start));
      if (!timed) return;

      Timed& t = phase.timed;
      auto& my_ok = ok[static_cast<std::size_t>(rank)];
      double control_cpu_ms = 0.0;
      const double cpu0 = rank == 0 ? host::process_cpu_ms() : 0.0;
      const auto loop_start = std::chrono::steady_clock::now();
      for (std::uint32_t i = 0;; ++i) {
        bool go = false;
        if (rank == 0) {
          go = (seconds_since(loop_start) < plan.seconds || i < plan.min_ops) &&
               (plan.max_ops == 0 || i < plan.max_ops);
        }
        if (!comm.bcast(go, 0)) break;
        trace::set_op(i + 1);
        const auto t0 = std::chrono::steady_clock::now();
        {
          const trace::Scope span(Layer::kOp, "op");
          program->op(ctx);
        }
        const auto t1 = std::chrono::steady_clock::now();
        trace::set_op(0);
        if (rank == 0) {
          const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
          const double control_ms = control.sample(&control_cpu_ms);
          t.op_ms.push_back(ms);
          t.wall_s += 1e-3 * ms;
          t.control_ms.push_back(control_ms);
          t.rel.push_back(ms / control_ms);
        }
        my_ok.push_back(program->check(ctx) ? 1 : 0);
      }
      if (rank == 0) {
        t.cpu_ms = host::process_cpu_ms() - cpu0 - control_cpu_ms;
        phase.job_ops = plan.warmup_ops + my_ok.size();
      }
      program->finish(ctx);
    };
    if (plan.traced) {
      trace::set_enabled(timed);
      phase.report = run_traced_job(options, job, &phase.peak_qubits);
      trace::set_enabled(false);
    } else {
      qmpi::JobReport report = qmpi::run(options, job);
      if (timed) phase.report = std::move(report);
    }
    if (timed) phase.peak_rss_mib = host::peak_rss_mib();
  }
  for (std::size_t i = 0; i < phase.timed.op_ms.size(); ++i) {
    bool all = true;
    for (const auto& r : ok) all = all && i < r.size() && r[i] != 0;
    phase.timed.ok += all ? 1 : 0;
  }
  if (plan.traced) phase.spans = trace::collect();
  return phase;
}

void add_sim_layers(Report& r, const Phase& traced) {
  const trace::Collected& c = traced.spans;
  double exec_ms = 0.0;
  double round_trip_ms = 0.0;
  std::uint64_t gate = 0, query = 0, alloc = 0;
  for (const trace::Span& s : c.spans) {
    if (s.op == 0) continue;
    const double ms = 1e-6 * static_cast<double>(s.t1_ns - s.t0_ns);
    if (s.layer == Layer::kSimEngine) exec_ms += ms;
    if (s.layer != Layer::kSimServer) continue;
    round_trip_ms += ms;
    if (std::strncmp(s.name, "gate.", 5) == 0) ++gate;
    if (std::strncmp(s.name, "query.", 6) == 0) ++query;
    if (std::strncmp(s.name, "alloc.", 6) == 0) ++alloc;
  }
  const double ops = static_cast<double>(traced.timed.op_ms.size());
  const double calls = static_cast<double>(gate + query + alloc);
  r.metric("sim.exec_ms_per_op", ops > 0 ? exec_ms / ops : 0.0, "ms");
  r.metric("sim.calls_per_op.gate", ops > 0 ? gate / ops : 0.0, "count");
  r.metric("sim.calls_per_op.query", ops > 0 ? query / ops : 0.0, "count");
  r.metric("sim.calls_per_op.alloc", ops > 0 ? alloc / ops : 0.0, "count");
  r.metric("sim.wait_us_per_call",
           calls > 0 ? 1e3 * (round_trip_ms - exec_ms) / calls : 0.0, "us");
  r.metric("sim.peak_qubits", static_cast<double>(traced.peak_qubits), "qubits");
}

void add_zero_metrics(
    Report& r, const std::vector<std::pair<std::string, std::string>>& units) {
  for (const auto& [name, unit] : units) r.metric(name, 0.0, unit);
}

void add_host_and_trace(Report& r, const Timed& untraced, const Timed& traced,
                        const trace::SelfTimes& self,
                        const trace::Collected& spans, const Options& opt) {
  r.metric("host.control_ms.p50", percentile(untraced.control_ms, 50), "ms");
  r.metric("host.loopback_rtt_us.p50", host::loopback_rtt_us(2000), "us");

  double layer_sum_ms = 0.0;
  for (int l = 0; l < static_cast<int>(Layer::kCount_); ++l) {
    if (static_cast<Layer>(l) != Layer::kOp) layer_sum_ms += self.layer_ms[l];
  }
  const double sum_pct =
      self.op_wall_ms > 0 ? 100.0 * layer_sum_ms / self.op_wall_ms : 0.0;
  r.metric("trace.layer_sum_pct", sum_pct, "%");
  r.check("trace_layer_sum_within_tolerance",
          std::abs(sum_pct - 100.0) <= kLayerSumTolerancePct,
          std::to_string(sum_pct) + "% of op wall over " +
              std::to_string(self.ops) + " traced ops (tolerance " +
              std::to_string(kLayerSumTolerancePct) + "%)");
  const double base = percentile(untraced.op_ms, 50);
  r.metric("trace.overhead_pct",
           base > 0 ? 100.0 * (percentile(traced.op_ms, 50) / base - 1.0) : 0.0,
           "%");
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  const bool wrote = trace::write_chrome_json(spans, kTraceFileOps, path);
  r.check("trace_file_written", wrote, path);
  if (wrote) r.notices.push_back("trace_file: " + path);
}

}  // namespace perfbench
