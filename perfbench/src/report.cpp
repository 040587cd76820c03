#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool Report::correct() const {
  if (failed != 0 || attempted == 0) return false;
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::print_table() const {
  std::printf("== %s: %llu ops attempted, %llu failed\n", workload.c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const Metric& m : metrics) {
    std::printf("  %-48s %14.6g %s\n", (workload + "/" + m.name).c_str(),
                m.value, m.unit.c_str());
  }
  for (const Check& c : checks) {
    std::printf("  check %-42s %s  %s\n", c.name.c_str(),
                c.ok ? "ok  " : "FAIL", c.detail.c_str());
  }
  for (const std::string& n : notices) std::printf("  notice: %s\n", n.c_str());
}

std::string Report::json(const std::string& machine) const {
  std::string out = "{\"workload\": " + quoted(workload) +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) +
           "}";
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out += (i ? ", " : "") + std::string("{\"name\": ") +
           quoted(checks[i].name) + ", \"ok\": " +
           (checks[i].ok ? "true" : "false") +
           ", \"detail\": " + quoted(checks[i].detail) + "}";
  }
  out += "], \"notices\": [";
  for (std::size_t i = 0; i < notices.size(); ++i) {
    out += (i ? ", " : "") + quoted(notices[i]);
  }
  out += "], \"machine\": " + machine + "}";
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void add_end_to_end(Report& r, const Timed& t, double setup_s,
                    double peak_rss_mib) {
  const auto n = static_cast<double>(t.op_ms.size());
  const double ops_per_s = t.wall_s > 0 ? n / t.wall_s : 0.0;
  const double cpu_ms_per_op = n > 0 ? t.cpu_ms / n : 0.0;
  const double control_ms = percentile(t.control_ms, 50);
  r.metric("setup_s", setup_s, "s");
  r.metric("op_ms.p50", percentile(t.op_ms, 50), "ms");
  r.metric("op_ms.p90", percentile(t.op_ms, 90), "ms");
  r.metric("ops_per_s", ops_per_s, "1/s");
  r.metric("cpu_ms_per_op", cpu_ms_per_op, "ms");
  // The same figures in units of the host control, which absorbs most of
  // the host's speed drift; these are the ones with a regression bound.
  r.metric("op_rel.p50", percentile(t.rel, 50), "ratio");
  r.metric("op_rel.p90", percentile(t.rel, 90), "ratio");
  r.metric("ops_per_control", ops_per_s * control_ms / 1e3, "ratio");
  r.metric("cpu_rel_per_op", control_ms > 0 ? cpu_ms_per_op / control_ms : 0.0,
           "ratio");
  r.metric("peak_rss_mib", peak_rss_mib, "MiB");
  r.metric("ok_ratio", n > 0 ? static_cast<double>(t.ok) / n : 0.0, "ratio");
  r.attempted = t.op_ms.size();
  r.failed = t.op_ms.size() - t.ok;
  // p90 is reported only with at least ten samples beyond it.
  r.check("p90_has_10_samples_beyond", n * 0.1 >= 10.0,
          std::to_string(t.op_ms.size()) + " samples");
}

}  // namespace perfbench
