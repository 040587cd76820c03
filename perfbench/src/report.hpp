#pragma once

// What one workload run produces: named metrics with units, the outcome of
// every correctness check, and non-gating notices. Printed as a table for
// people and as one JSON line for run.py.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::string workload;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::vector<std::string> notices;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
  bool correct() const;
  void print_table() const;
  std::string json(const std::string& machine) const;
};

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 for empty input.
double percentile(std::vector<double> v, double p);

/// Summary of a timed phase, shared by every workload.
struct Timed {
  std::vector<double> op_ms;   ///< wall time of each op, in order
  std::vector<double> rel;     ///< op wall / control wall beside it
  std::vector<double> control_ms;
  /// Wall time the ops took: the sum of op times for one driving thread,
  /// the phase length for concurrent clients. Controls and checks are
  /// outside it.
  double wall_s = 0.0;
  double cpu_ms = 0.0;         ///< process CPU over the phase, controls excluded
  std::uint64_t ok = 0;        ///< ops whose output passed its check
};

/// Adds the end-to-end metrics of `t` to `r` and sets attempted/failed.
void add_end_to_end(Report& r, const Timed& t, double setup_s,
                    double peak_rss_mib);

}  // namespace perfbench
