#pragma once

// Host controls and process accounting. None of this calls into the
// library under test: the controls show how fast the host itself was while
// the workload ran, so op times can be read against them.

#include <string>
#include <vector>

namespace perfbench::host {

/// Compute control: a fixed sweep of complex multiplies over a 1 MiB
/// buffer. Returns its wall time in ms; its own thread CPU time is added to
/// `*thread_cpu_ms` so it can be excluded from the process CPU figure.
class Control {
 public:
  Control();
  double sample(double* thread_cpu_ms);

 private:
  std::vector<double> re_;
  std::vector<double> im_;
};

/// Median round trip, in microseconds, of a 64-byte ping-pong over a
/// loopback TCP connection between two threads of this process.
double loopback_rtt_us(int round_trips);

/// CPU time of the whole process, and of the calling thread, in ms.
double process_cpu_ms();
double thread_cpu_ms();

/// Peak resident set of this process, in MiB.
double peak_rss_mib();

/// The machine block every record carries, as a JSON object.
std::string machine_json(const std::string& git_rev);

}  // namespace perfbench::host
