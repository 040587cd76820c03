// tfim_trotter and teleport_ring: QMPI programs from the paper run as
// threads-as-ranks jobs against the in-process SimServer.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "apps/tfim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using qmpi::Context;
using qmpi::OpCategory;
using trace::Layer;

constexpr double kTol = 1e-9;

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const std::vector<std::pair<std::string, std::string>> kServiceMetrics = {
    {"service.open_ms.p50", "ms"},
    {"service.queued_per_job", "count"},
    {"service.call_ms.p50", "ms"},
    {"service.calls_per_job", "count"},
    {"service.ops_per_job", "count"},
    {"service.close_ms.p50", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_lookups_per_job", "count"},
    {"service.cache_evictions_per_job", "count"},
    {"service.rejected", "count"}};

/// Per-layer metrics common to the two QMPI workloads.
void add_qmpi_layers(Report& r, const Phase& traced, const Phase& untraced,
                     double engine_ref_ms, const Options& opt) {
  add_sim_layers(r, traced);
  r.metric("sim.engine_ref_ms", engine_ref_ms, "ms");
  r.metric("sim.qmpi_overhead_x",
           percentile(untraced.timed.op_ms, 50) / engine_ref_ms, "x");
  const trace::SelfTimes self = trace::self_times(traced.spans, "rank 0");
  const double ops = static_cast<double>(self.ops);
  r.metric("core.self_ms_per_op",
           ops > 0 ? self.layer_ms[static_cast<int>(Layer::kCore)] / ops : 0.0,
           "ms");
  r.metric("classical.barrier_ms_per_op",
           ops > 0 ? self.layer_ms[static_cast<int>(Layer::kClassical)] / ops : 0.0,
           "ms");
  add_zero_metrics(r, kServiceMetrics);
  add_host_and_trace(r, untraced.timed, traced.timed, self, traced.spans, opt);
}

void add_resources(Report& r, const Phase& p) {
  const auto total = p.report.total();
  const double ops = static_cast<double>(p.job_ops);
  r.metric("epr_per_op", static_cast<double>(total.epr_pairs) / ops, "count");
  r.metric("cbits_per_op", static_cast<double>(total.classical_bits) / ops,
           "count");
}

// ------------------------------------------------------------ tfim_trotter

constexpr int kTfimRanks = 2;
constexpr unsigned kTfimLocalSpins = 9;
constexpr unsigned kTfimSpins = kTfimRanks * kTfimLocalSpins;
constexpr int kTfimWarmup = 2;

struct TfimInputs {
  double j = 0.0;
  double g = 0.0;
  double dt = 0.0;
  std::vector<double> theta;  ///< initial Ry angle per spin
};

/// What the ranks report back for checking.
struct TfimOut {
  std::vector<double> prob[kTfimRanks];  ///< per-op probability_one sync
  std::vector<double> z = std::vector<double>(kTfimSpins);
  std::vector<double> x = std::vector<double>(kTfimSpins);
};

class TfimRank final : public RankProgram {
 public:
  TfimRank(Context& ctx, const TfimInputs& in, TfimOut& out)
      : in_(in), out_(out), q_(ctx.alloc_qmem(kTfimLocalSpins)) {
    for (unsigned s = 0; s < kTfimLocalSpins; ++s) {
      ctx.ry(q_[s], in.theta[ctx.rank() * kTfimLocalSpins + s]);
    }
  }
  // Paper §7.2 Listing 1: one first-order Trotter step, then a
  // probability_one sync and a barrier, so no rank runs ahead.
  void op(Context& ctx) override {
    {
      const trace::Scope span(Layer::kCore, "core.tfim_step");
      qmpi::apps::tfim_time_evolution(ctx, in_.j, in_.g, in_.dt, q_.data(),
                                      kTfimLocalSpins, 1);
    }
    p_ = ctx.probability_one(q_[0]);
    const trace::Scope span(Layer::kClassical, "classical.barrier");
    ctx.barrier();
  }
  bool check(Context& ctx) override {
    out_.prob[ctx.rank()].push_back(p_);
    return true;  // compared against the reference after the job
  }
  void finish(Context& ctx) override {
    for (unsigned s = 0; s < kTfimLocalSpins; ++s) {
      const std::pair<qmpi::sim::QubitId, char> pz[] = {{q_[s].id, 'Z'}};
      const std::pair<qmpi::sim::QubitId, char> px[] = {{q_[s].id, 'X'}};
      const unsigned g = ctx.rank() * kTfimLocalSpins + s;
      out_.z[g] = ctx.sim().expectation(pz);
      out_.x[g] = ctx.sim().expectation(px);
    }
  }

 private:
  const TfimInputs& in_;
  TfimOut& out_;
  qmpi::QubitArray q_;
  double p_ = 0.0;
};

/// Replays the job's steps on a bare StateVector with
/// apps::tfim_reference_evolution, checks every op's sync value and the
/// final <Z>, <X> of every spin, and returns the per-step replay times.
std::vector<double> check_tfim(const TfimInputs& in, const TfimOut& out,
                               Phase& phase, Report& r, const char* tag) {
  qmpi::sim::StateVector sv;
  const std::vector<qmpi::sim::QubitId> spins = sv.allocate(kTfimSpins);
  for (unsigned i = 0; i < kTfimSpins; ++i) sv.ry(spins[i], in.theta[i]);
  std::vector<double> step_ms;
  std::vector<std::uint8_t> step_ok;
  for (std::uint64_t step = 0; step < phase.job_ops; ++step) {
    const auto t0 = std::chrono::steady_clock::now();
    qmpi::apps::tfim_reference_evolution(sv, spins, in.j, in.g, in.dt, 1);
    const double p0 = sv.probability_one(spins[0]);
    const auto t1 = std::chrono::steady_clock::now();
    step_ms.push_back(ms_between(t0, t1));
    const double p1 = sv.probability_one(spins[kTfimLocalSpins]);
    step_ok.push_back(step < out.prob[0].size() && step < out.prob[1].size() &&
                      std::abs(out.prob[0][step] - p0) <= kTol &&
                      std::abs(out.prob[1][step] - p1) <= kTol);
  }
  double worst = 0.0;
  for (unsigned i = 0; i < kTfimSpins; ++i) {
    const std::pair<qmpi::sim::QubitId, char> pz[] = {{spins[i], 'Z'}};
    const std::pair<qmpi::sim::QubitId, char> px[] = {{spins[i], 'X'}};
    worst = std::max(worst, std::abs(sv.expectation(pz) - out.z[i]));
    worst = std::max(worst, std::abs(sv.expectation(px) - out.x[i]));
  }
  const bool final_ok = worst <= kTol;
  char detail[128];
  std::snprintf(detail, sizeof detail, "max |delta| %.3g over %u spins, %llu steps",
                worst, kTfimSpins, static_cast<unsigned long long>(phase.job_ops));
  r.check(std::string("tfim_final_state_matches_reference") + tag, final_ok,
          detail);

  // An op is ok when its own sync value and the final state both match.
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < phase.timed.op_ms.size(); ++i) {
    ok += final_ok && step_ok[kTfimWarmup + i] ? 1 : 0;
  }
  phase.timed.ok = ok;

  const auto copy = phase.report[OpCategory::kCopy];
  r.check(std::string("tfim_copy_epr_is_2_per_step") + tag,
          copy.epr_pairs == 2 * phase.job_ops,
          std::to_string(copy.epr_pairs) + " EPR pairs over " +
              std::to_string(phase.job_ops) + " steps");
  return step_ms;
}

// ----------------------------------------------------------- teleport_ring

constexpr int kRingRanks = 4;
constexpr int kRingWarmup = 20;
constexpr int kRingRefRotations = 200;

class RingRank final : public RankProgram {
 public:
  RingRank(Context& ctx, double theta) : theta_(theta), q_(ctx.alloc_qmem(1)) {
    ctx.ry(q_[0], theta);
  }
  // Paper §4.4 / Table 2: size() hops of Sendrecv_replace bring every
  // state home, then a barrier.
  void op(Context& ctx) override {
    const int next = (ctx.rank() + 1) % ctx.size();
    const int prev = (ctx.rank() - 1 + ctx.size()) % ctx.size();
    for (int hop = 0; hop < ctx.size(); ++hop) {
      const trace::Scope span(Layer::kCore, "core.sendrecv_replace");
      ctx.sendrecv_replace(q_.data(), 1, next, prev, 0);
    }
    const trace::Scope span(Layer::kClassical, "classical.barrier");
    ctx.barrier();
  }
  bool check(Context& ctx) override {
    const std::pair<qmpi::sim::QubitId, char> pz[] = {{q_[0].id, 'Z'}};
    return std::abs(ctx.sim().expectation(pz) - std::cos(theta_)) <= kTol;
  }

 private:
  double theta_;
  qmpi::QubitArray q_;
};

/// The same rotation as textbook teleports on a bare StateVector (no QMPI,
/// no server hop), all EPR pairs of a hop live at once as in the job.
/// Returns per-rotation times; sets *ok when every state came home.
std::vector<double> ring_reference(const std::vector<double>& theta, bool* ok) {
  qmpi::sim::StateVector sv;
  std::vector<qmpi::sim::QubitId> q = sv.allocate(kRingRanks);
  for (int r = 0; r < kRingRanks; ++r) sv.ry(q[r], theta[r]);
  std::vector<double> ms;
  *ok = true;
  for (int rot = 0; rot < kRingRefRotations; ++rot) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int hop = 0; hop < kRingRanks; ++hop) {
      std::vector<qmpi::sim::QubitId> a(kRingRanks), b(kRingRanks);
      for (int r = 0; r < kRingRanks; ++r) {
        const auto pair = sv.allocate(2);
        a[r] = pair[0];
        b[r] = pair[1];
        sv.h(a[r]);
        sv.cnot(a[r], b[r]);
      }
      std::vector<qmpi::sim::QubitId> moved(kRingRanks);
      for (int r = 0; r < kRingRanks; ++r) {
        sv.cnot(q[r], a[r]);
        sv.h(q[r]);
        const bool m1 = sv.measure(q[r]);
        const bool m2 = sv.measure(a[r]);
        if (m2) sv.x(b[r]);
        if (m1) sv.z(b[r]);
        sv.deallocate_classical(q[r]);
        sv.deallocate_classical(a[r]);
        moved[(r + 1) % kRingRanks] = b[r];
      }
      q = moved;
    }
    (void)sv.probability_one(q[0]);  // flush, like the job's check
    ms.push_back(ms_between(t0, std::chrono::steady_clock::now()));
    for (int r = 0; r < kRingRanks; ++r) {
      const std::pair<qmpi::sim::QubitId, char> pz[] = {{q[r], 'Z'}};
      *ok = *ok && std::abs(sv.expectation(pz) - std::cos(theta[r])) <= kTol;
    }
  }
  return ms;
}

void check_ring(Phase& phase, Report& r, const char* tag) {
  const auto move = phase.report[OpCategory::kMove];
  const std::uint64_t teleports = phase.job_ops * kRingRanks * kRingRanks;
  r.check(std::string("ring_move_is_1_epr_2_bits_per_teleport") + tag,
          move.epr_pairs == teleports && move.classical_bits == 2 * teleports,
          std::to_string(move.epr_pairs) + " EPR, " +
              std::to_string(move.classical_bits) + " bits over " +
              std::to_string(teleports) + " teleports");
  r.check(std::string("ring_z_matches_cos_theta_every_rotation") + tag,
          phase.timed.ok == phase.timed.op_ms.size(),
          std::to_string(phase.timed.ok) + "/" +
              std::to_string(phase.timed.op_ms.size()) + " rotations");
}

PhasePlan plan_for(const Options& opt, int ranks, std::uint64_t job_seed,
                   bool traced, int warmup) {
  PhasePlan p;
  p.ranks = ranks;
  p.job_seed = job_seed;
  p.traced = traced;
  // A traced run splits its time between an untraced and a traced phase.
  p.seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  p.min_ops = opt.min_ops;
  p.max_ops = traced ? std::max(opt.min_ops, kMaxTracedOps) : 0;
  p.setups = traced ? 1 : opt.setups;
  p.warmup_ops = warmup;
  return p;
}

}  // namespace

Report run_tfim_trotter(const Options& opt) {
  Report r;
  r.workload = "tfim_trotter";
  Rng rng(opt.seed);
  TfimInputs in;
  in.j = rng.uniform(0.5, 1.5);
  in.g = rng.uniform(0.5, 1.5);
  in.dt = rng.uniform(0.05, 0.15);
  for (unsigned i = 0; i < kTfimSpins; ++i) in.theta.push_back(rng.uniform(0.1, 3.0));
  const std::uint64_t job_seed = rng.next();

  auto run = [&](bool traced, TfimOut& out) {
    return run_qmpi_phase(
        plan_for(opt, kTfimRanks, job_seed, traced, kTfimWarmup),
        [&](Context& ctx) -> std::unique_ptr<RankProgram> {
          return std::make_unique<TfimRank>(ctx, in, out);
        });
  };
  TfimOut out;
  Phase untraced = run(false, out);
  const std::vector<double> ref_ms = check_tfim(in, out, untraced, r, "");
  add_end_to_end(r, untraced.timed, percentile(untraced.setup_s, 50),
                 untraced.peak_rss_mib);
  if (opt.trace) {
    TfimOut traced_out;
    Phase traced = run(true, traced_out);
    (void)check_tfim(in, traced_out, traced, r, "_traced");
    add_resources(r, untraced);
    add_qmpi_layers(r, traced, untraced, percentile(ref_ms, 50), opt);
  }
  return r;
}

Report run_teleport_ring(const Options& opt) {
  Report r;
  r.workload = "teleport_ring";
  Rng rng(opt.seed);
  std::vector<double> theta;
  for (int i = 0; i < kRingRanks; ++i) theta.push_back(rng.uniform(0.1, 3.0));
  const std::uint64_t job_seed = rng.next();

  auto run = [&](bool traced) {
    return run_qmpi_phase(
        plan_for(opt, kRingRanks, job_seed, traced, kRingWarmup),
        [&](Context& ctx) -> std::unique_ptr<RankProgram> {
          return std::make_unique<RingRank>(ctx, theta[ctx.rank()]);
        });
  };
  Phase untraced = run(false);
  check_ring(untraced, r, "");
  add_end_to_end(r, untraced.timed, percentile(untraced.setup_s, 50),
                 untraced.peak_rss_mib);
  if (opt.trace) {
    Phase traced = run(true);
    check_ring(traced, r, "_traced");
    bool ref_ok = false;
    const std::vector<double> ref_ms = ring_reference(theta, &ref_ok);
    r.check("ring_reference_comes_home", ref_ok, "bare StateVector replay");
    add_resources(r, untraced);
    add_qmpi_layers(r, traced, untraced, percentile(ref_ms, 50), opt);
  }
  return r;
}

}  // namespace perfbench
