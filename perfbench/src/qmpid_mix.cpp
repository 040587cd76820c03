// qmpid_mix: tenant jobs against an in-process JobService, four client
// connections in a closed loop and three sessions admitted at a time, so
// the FIFO admission queue is always in use.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "host.hpp"
#include "service/job_service.hpp"
#include "service/session_client.hpp"
#include "sim/backend.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using qmpi::service::JobService;
using qmpi::service::ServiceStats;
using qmpi::sim::QubitId;
using trace::Layer;
using Clock = std::chrono::steady_clock;

constexpr unsigned kQubits = 16;
constexpr int kLayers = 3;
constexpr int kClients = 4;
constexpr std::size_t kMaxSessions = 3;
constexpr int kRecurring = 4;
constexpr int kWarmupJobs = 2 * kRecurring;
/// The main thread samples the host control this often while clients run.
constexpr auto kControlPeriod = std::chrono::milliseconds(10);

/// One tenant job's inputs. Recurring jobs repeat angles and session seed
/// exactly, so their fused clusters are cache reads; fresh jobs are writes.
struct JobSpec {
  int recurring = -1;  ///< index into the recurring set, or -1 when fresh
  std::uint64_t session_seed = 0;
  std::vector<double> angles;  ///< Ry then Rz per qubit per layer
};

struct JobResult {
  std::vector<double> prob;
  std::vector<std::uint8_t> bits;
};

JobSpec fresh_spec(Rng& rng) {
  JobSpec s;
  s.session_seed = rng.next();
  for (int i = 0; i < 2 * kLayers * static_cast<int>(kQubits); ++i) {
    s.angles.push_back(rng.uniform(0.0, 6.283185307179586));
  }
  return s;
}

/// The seeded draw for job `index` of the run: half recurring, half fresh.
JobSpec spec_for(std::uint64_t run_seed, std::uint64_t index,
                 const std::vector<JobSpec>& recurring) {
  Rng rng(run_seed ^ (0xD1B54A32D192ED03ULL * (index + 1)));
  const std::uint64_t draw = rng.next();
  if ((draw & 1) == 0) return recurring[(draw >> 1) % recurring.size()];
  return fresh_spec(rng);
}

/// The job's circuit: a layered entangling circuit, a probability_one
/// sweep, then a measurement sweep. `Sim` is a SessionClient or a Backend.
template <typename Sim>
void apply_layers(Sim& sim, const std::vector<QubitId>& q, const JobSpec& s) {
  std::size_t a = 0;
  for (int layer = 0; layer < kLayers; ++layer) {
    for (const QubitId qi : q) {
      sim.apply(qmpi::sim::gate_ry(s.angles[a++]), qi);
      sim.apply(qmpi::sim::gate_rz(s.angles[a++]), qi);
    }
    for (std::size_t i = 0; i + 1 < q.size(); ++i) sim.cnot(q[i], q[i + 1]);
  }
}

/// The job replayed alone on a bare serial Backend, as the service would
/// run it for a single tenant.
JobResult solo(const JobSpec& s, double* ms) {
  const auto t0 = Clock::now();
  auto b = qmpi::sim::make_backend(qmpi::sim::BackendKind::kSerial,
                                   s.session_seed);
  const std::vector<QubitId> q = b->allocate(kQubits);
  apply_layers(*b, q, s);
  JobResult r;
  for (const QubitId qi : q) r.prob.push_back(b->probability_one(qi));
  for (const QubitId qi : q) r.bits.push_back(b->measure(qi) ? 1 : 0);
  *ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return r;
}

struct JobRecord {
  JobSpec spec;
  JobResult result;
  Clock::time_point t0, t1;
  std::uint64_t ops = 0;  ///< service-side op count returned by close()
  std::uint32_t calls = 0;
};

/// One tenant job end to end: open (admission), circuit, probability_one
/// sweep, measurement sweep, close.
JobRecord run_job(std::uint16_t port, const JobSpec& spec) {
  JobRecord rec;
  rec.spec = spec;
  qmpi::service::SessionConfig cfg;
  cfg.port = port;
  cfg.seed = spec.session_seed;
  cfg.max_qubits = kQubits;
  rec.t0 = Clock::now();
  {
    const trace::Scope job(Layer::kOp, "job");
    std::unique_ptr<qmpi::service::SessionClient> s;
    {
      const trace::Scope span(Layer::kService, "service.open");
      s = std::make_unique<qmpi::service::SessionClient>(cfg);
    }
    std::vector<QubitId> q;
    {
      const trace::Scope span(Layer::kService, "service.call");
      q = s->allocate(kQubits);
      ++rec.calls;
    }
    {
      const trace::Scope span(Layer::kService, "service.submit");
      apply_layers(*s, q, spec);
    }
    for (const QubitId qi : q) {
      const trace::Scope span(Layer::kService, "service.call");
      rec.result.prob.push_back(s->probability_one(qi));
      ++rec.calls;
    }
    for (const QubitId qi : q) {
      const trace::Scope span(Layer::kService, "service.call");
      rec.result.bits.push_back(s->measure(qi) ? 1 : 0);
      ++rec.calls;
    }
    const trace::Scope span(Layer::kService, "service.close");
    rec.ops = s->close();
    s.reset();
  }
  rec.t1 = Clock::now();
  return rec;
}

struct MixPhase {
  Timed timed;
  std::vector<JobRecord> jobs;
  ServiceStats before, after;
  trace::Collected spans;
};

/// Four closed-loop clients run jobs until the phase ends; the main
/// thread samples the host control meanwhile.
MixPhase run_phase(JobService& service, const Options& opt, double seconds,
                   std::uint64_t* next_index,
                   const std::vector<JobSpec>& recurring, bool traced) {
  MixPhase p;
  p.before = service.stats();
  trace::set_enabled(traced);
  std::atomic<std::uint64_t> next{*next_index};
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<JobRecord>> per_client(kClients);
  std::vector<std::exception_ptr> errors(kClients);
  std::vector<std::pair<Clock::time_point, double>> controls;
  host::Control control;
  double control_cpu_ms = 0.0;

  const double cpu0 = host::process_cpu_ms();
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      trace::name_thread("client " + std::to_string(c));
      try {
        while (!stop.load()) {
          const std::uint64_t i = next.fetch_add(1);
          trace::set_op(static_cast<std::uint32_t>(i - *next_index + 1));
          per_client[c].push_back(
              run_job(service.port(), spec_for(opt.seed, i, recurring)));
          trace::set_op(0);
          done.fetch_add(1);
        }
      } catch (...) {
        errors[c] = std::current_exception();
        stop.store(true);
      }
    });
  }
  while (!stop.load()) {
    const auto t0 = Clock::now();
    const double ms = control.sample(&control_cpu_ms);
    controls.emplace_back(t0 + (Clock::now() - t0) / 2, ms);
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if ((elapsed >= seconds && done.load() >= opt.min_ops) ||
        (traced && done.load() >= std::max(opt.min_ops, kMaxTracedOps))) {
      stop.store(true);
    }
    std::this_thread::sleep_for(kControlPeriod);
  }
  for (auto& t : clients) t.join();
  p.timed.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  p.timed.cpu_ms = host::process_cpu_ms() - cpu0 - control_cpu_ms;
  trace::set_enabled(false);
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  *next_index = next.load();
  p.after = service.stats();

  for (auto& jobs : per_client) {
    for (auto& j : jobs) p.jobs.push_back(std::move(j));
  }
  std::sort(p.jobs.begin(), p.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.t1 < b.t1; });
  // Each job is paired with the control sample nearest its midpoint.
  for (const JobRecord& j : p.jobs) {
    const double ms = std::chrono::duration<double, std::milli>(j.t1 - j.t0).count();
    const auto mid = j.t0 + (j.t1 - j.t0) / 2;
    const auto near = std::min_element(
        controls.begin(), controls.end(), [&](const auto& a, const auto& b) {
          return std::abs((a.first - mid).count()) < std::abs((b.first - mid).count());
        });
    p.timed.op_ms.push_back(ms);
    p.timed.control_ms.push_back(near->second);
    p.timed.rel.push_back(ms / near->second);
  }
  if (traced) p.spans = trace::collect();
  return p;
}

/// Checks every job against its solo replay (recurring ones were replayed
/// during set-up, fresh ones are replayed here on up to four threads).
/// Sets timed.ok and returns the solo replay times.
std::vector<double> check_jobs(MixPhase& p,
                               const std::vector<JobResult>& recurring_expected,
                               Report& r, const char* tag) {
  std::vector<std::uint8_t> ok(p.jobs.size(), 0);
  std::vector<double> solo_ms(p.jobs.size(), 0.0);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < p.jobs.size(); i = next.fetch_add(1)) {
      const JobRecord& j = p.jobs[i];
      if (j.spec.recurring >= 0) {
        const JobResult& e = recurring_expected[j.spec.recurring];
        ok[i] = e.prob == j.result.prob && e.bits == j.result.bits;
      } else {
        const JobResult e = solo(j.spec, &solo_ms[i]);
        ok[i] = e.prob == j.result.prob && e.bits == j.result.bits;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  p.timed.ok = static_cast<std::uint64_t>(std::count(ok.begin(), ok.end(), 1));
  r.check(std::string("mix_jobs_match_solo_replay") + tag,
          p.timed.ok == p.jobs.size(),
          std::to_string(p.timed.ok) + "/" + std::to_string(p.jobs.size()) +
              " jobs bit-identical in probability_one and measurement");
  const std::uint64_t rejected = p.after.rejected - p.before.rejected;
  r.check(std::string("mix_no_rejected_opens") + tag, rejected == 0,
          std::to_string(rejected) + " rejected");
  const bool same_ops = std::all_of(p.jobs.begin(), p.jobs.end(), [&](const JobRecord& j) {
    return j.ops == p.jobs.front().ops;
  });
  r.check(std::string("mix_ops_per_job_exact") + tag, same_ops && !p.jobs.empty(),
          p.jobs.empty() ? "no jobs" : std::to_string(p.jobs.front().ops) + " ops per job");
  std::vector<double> fresh_ms;
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    if (p.jobs[i].spec.recurring < 0) fresh_ms.push_back(solo_ms[i]);
  }
  return fresh_ms;
}

std::vector<double> span_ms(const trace::Collected& c, const char* name) {
  std::vector<double> out;
  for (const trace::Span& s : c.spans) {
    if (s.op != 0 && std::string_view(s.name) == name) {
      out.push_back(1e-6 * static_cast<double>(s.t1_ns - s.t0_ns));
    }
  }
  return out;
}

}  // namespace

Report run_qmpid_mix(const Options& opt) {
  Report r;
  r.workload = "qmpid_mix";
  Rng rng(opt.seed);
  std::vector<JobSpec> recurring;
  for (int i = 0; i < kRecurring; ++i) {
    recurring.push_back(fresh_spec(rng));
    recurring.back().recurring = i;
  }

  qmpi::service::ServiceConfig cfg;
  cfg.max_sessions = kMaxSessions;
  std::vector<JobResult> expected;
  std::vector<double> setup_s;
  std::vector<double> ref_ms;
  // Set-up: service start, the recurring jobs' solo replays, and warm-up
  // jobs that fill the cluster cache.
  auto set_up = [&] {
    const auto t0 = Clock::now();
    auto service = std::make_unique<JobService>(cfg);
    service->start();
    expected.clear();
    for (const JobSpec& s : recurring) {
      double ms = 0.0;
      expected.push_back(solo(s, &ms));
      ref_ms.push_back(ms);
    }
    for (int w = 0; w < kWarmupJobs; ++w) {
      (void)run_job(service->port(), recurring[w % kRecurring]);
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    return service;
  };

  std::unique_ptr<JobService> service = set_up();
  std::uint64_t next_index = 0;
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  MixPhase untraced = run_phase(*service, opt, phase_s, &next_index, recurring, false);
  const double rss = host::peak_rss_mib();
  MixPhase traced;
  if (opt.trace) {
    traced = run_phase(*service, opt, phase_s, &next_index, recurring, true);
  }
  service.reset();
  // The remaining set-ups come after the timed phases, so the peak RSS
  // above covers one service only.
  for (int k = 1; k < opt.setups; ++k) set_up();

  const std::vector<double> fresh_ms = check_jobs(untraced, expected, r, "");
  ref_ms.insert(ref_ms.end(), fresh_ms.begin(), fresh_ms.end());
  add_end_to_end(r, untraced.timed, percentile(setup_s, 50), rss);
  if (!opt.trace) return r;

  (void)check_jobs(traced, expected, r, "_traced");
  const double jobs = static_cast<double>(traced.jobs.size());
  const ServiceStats& a = traced.after;
  const ServiceStats& b = traced.before;
  const double lookups = static_cast<double>((a.cache_hits - b.cache_hits) +
                                             (a.cache_misses - b.cache_misses));
  std::uint64_t calls = 0;
  for (const JobRecord& j : traced.jobs) calls += j.calls;

  add_zero_metrics(r, {{"epr_per_op", "count"},
                       {"cbits_per_op", "count"},
                       {"sim.exec_ms_per_op", "ms"},
                       {"sim.calls_per_op.gate", "count"},
                       {"sim.calls_per_op.query", "count"},
                       {"sim.calls_per_op.alloc", "count"},
                       {"sim.wait_us_per_call", "us"},
                       {"core.self_ms_per_op", "ms"},
                       {"classical.barrier_ms_per_op", "ms"}});
  r.metric("sim.peak_qubits", kQubits, "qubits");
  const double engine_ref = percentile(ref_ms, 50);
  r.metric("sim.engine_ref_ms", engine_ref, "ms");
  r.metric("sim.qmpi_overhead_x", percentile(untraced.timed.op_ms, 50) / engine_ref, "x");
  r.metric("service.open_ms.p50", percentile(span_ms(traced.spans, "service.open"), 50), "ms");
  r.metric("service.queued_per_job",
           static_cast<double>(a.queued_admissions - b.queued_admissions) / jobs, "count");
  r.metric("service.call_ms.p50", percentile(span_ms(traced.spans, "service.call"), 50), "ms");
  r.metric("service.calls_per_job", static_cast<double>(calls) / jobs, "count");
  r.metric("service.ops_per_job",
           static_cast<double>(a.ops_executed - b.ops_executed) / jobs, "count");
  r.metric("service.close_ms.p50", percentile(span_ms(traced.spans, "service.close"), 50), "ms");
  r.metric("service.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(a.cache_hits - b.cache_hits) / lookups : 0.0,
           "ratio");
  r.metric("service.cache_lookups_per_job", lookups / jobs, "count");
  r.metric("service.cache_evictions_per_job",
           static_cast<double>(a.cache_evictions - b.cache_evictions) / jobs, "count");
  r.metric("service.rejected", static_cast<double>(a.rejected - b.rejected), "count");
  const trace::SelfTimes self = trace::self_times(traced.spans, "client");
  add_host_and_trace(r, untraced.timed, traced.timed, self, traced.spans, opt);
  r.notices.push_back(
      "qmpid_mix: sim.exec_ms_per_op and sim.calls_per_op.* are 0 because "
      "the service runs its Backends on its own executor threads, not "
      "through a SimServer; sim.engine_ref_ms is the solo replay of a job");
  return r;
}

}  // namespace perfbench
