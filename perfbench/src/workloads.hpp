#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/qmpi.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t min_ops = 100;  ///< timed ops at least, so p90 has 10 beyond it
  int setups = 5;             ///< set-ups per run; setup_s is their median
  std::string out_dir = ".";  ///< where the trace file goes
};

/// SplitMix64: every workload input is drawn from the run's seed through it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

Report run_tfim_trotter(const Options& opt);
Report run_teleport_ring(const Options& opt);
Report run_qmpid_mix(const Options& opt);

/// Runs the count-2 sendrecv_replace swap and records its outcome as a
/// non-gating notice.
void note_sendrecv_replace_defect(Report& r);

// ------------------------------------------------ QMPI job harness (tfim,
// teleport): per-rank programs driven in a closed loop.

/// One rank's share of a workload. Built on the rank's thread (allocation
/// and state preparation are part of set-up).
class RankProgram {
 public:
  virtual ~RankProgram() = default;
  /// One op. Every rank runs the same op count in lock step.
  virtual void op(qmpi::Context& ctx) = 0;
  /// Checks the op just finished, outside the timed region.
  virtual bool check(qmpi::Context& ctx) = 0;
  /// Reads out the final state after the last op.
  virtual void finish(qmpi::Context&) {}
};
using MakeProgram =
    std::function<std::unique_ptr<RankProgram>(qmpi::Context&)>;

struct Phase {
  Timed timed;
  std::vector<double> setup_s;      ///< one entry per set-up
  qmpi::JobReport report;           ///< of the job that ran the timed ops
  std::uint64_t job_ops = 0;        ///< warm-up plus timed ops in that job
  double peak_rss_mib = 0.0;        ///< read right after the timed job
  std::size_t peak_qubits = 0;      ///< traced phases only
  trace::Collected spans;           ///< traced phases only
};

struct PhasePlan {
  int ranks = 2;
  std::uint64_t job_seed = 1;
  bool traced = false;
  double seconds = 1.0;
  std::size_t min_ops = 1;
  std::size_t max_ops = 0;  ///< 0 = no cap
  int setups = 1;
  int warmup_ops = 1;
};

/// Runs `plan.setups` jobs; each builds the programs and runs the warm-up
/// ops, and the first one continues into the timed loop. Untraced phases go
/// through qmpi::run; traced ones through an equivalent in-process harness
/// whose SimClient records a span per call and per Backend execution.
Phase run_qmpi_phase(const PhasePlan& plan, const MakeProgram& make);

/// Per-layer metrics of a traced QMPI phase.
void add_sim_layers(Report& r, const Phase& traced);

/// Per-layer metrics this workload does not exercise, reported as 0.
void add_zero_metrics(
    Report& r, const std::vector<std::pair<std::string, std::string>>& units);

/// Host, trace-accounting and tracing-overhead metrics shared by all
/// workloads; gates trace.layer_sum_pct on the stated tolerance.
void add_host_and_trace(Report& r, const Timed& untraced, const Timed& traced,
                        const trace::SelfTimes& self,
                        const trace::Collected& spans, const Options& opt);

/// Percent tolerance on trace.layer_sum_pct (ROADMAP item 1c).
inline constexpr double kLayerSumTolerancePct = 10.0;
/// Timed ops written to the trace file (all are aggregated).
inline constexpr std::uint32_t kTraceFileOps = 32;
/// Timed ops at most in a traced phase: enough for the per-layer figures
/// while keeping the spans held in memory bounded.
inline constexpr std::size_t kMaxTracedOps = 1000;

}  // namespace perfbench
