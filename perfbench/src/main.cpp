// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload tfim_trotter|teleport_ring|qmpid_mix --seed N
//             --seconds S --trace 0|1 [--min-ops N] [--setups N]
//             [--out-dir DIR] [--git-rev REV]
//
// Prints a human-readable table, then one JSON line holding every metric,
// check and notice plus the machine block. perfbench/run.py builds this
// binary, selects the metrics a run reports and prints the result line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {

void note_sendrecv_replace_defect(Report& r) {
  // Known defect: with count >= 2, Context::exchange_move posts every qubit
  // id on one tag before the first fix-up int, so a sender that outranks its
  // receiver mismatches message sizes. The benchmark's ring uses count 1;
  // this reports, without gating, whether the count-2 swap works yet.
  std::string outcome;
  try {
    qmpi::JobOptions options;
    options.num_ranks = 2;
    qmpi::run(options, [](qmpi::Context& ctx) {
      qmpi::QubitArray q = ctx.alloc_qmem(2);
      if (ctx.rank() == 0) ctx.x(q[0]);
      const int peer = 1 - ctx.rank();
      ctx.sendrecv_replace(q.data(), 2, peer, peer, 0);
      ctx.barrier();
    });
    outcome = "the 2-rank count-2 swap completed";
  } catch (const std::exception& e) {
    outcome = std::string("the 2-rank count-2 swap threw: ") + e.what();
  }
  r.notices.push_back("known_defect: sendrecv_replace with count >= 2 fails "
                      "when the sender outranks the receiver; " + outcome);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tfim_trotter|teleport_ring|"
               "qmpid_mix --seed N --seconds S --trace 0|1 [--min-ops N] "
               "[--setups N] [--out-dir DIR] [--git-rev REV]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string git_rev = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      opt.workload = v;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (key == "--min-ops") {
      opt.min_ops = std::strtoull(v, nullptr, 10);
    } else if (key == "--setups") {
      opt.setups = std::atoi(v);
    } else if (key == "--out-dir") {
      opt.out_dir = v;
    } else if (key == "--git-rev") {
      git_rev = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0 || opt.setups < 1) return usage();

  perfbench::Report report;
  try {
    if (opt.workload == "tfim_trotter") {
      report = perfbench::run_tfim_trotter(opt);
    } else if (opt.workload == "teleport_ring") {
      report = perfbench::run_teleport_ring(opt);
    } else if (opt.workload == "qmpid_mix") {
      report = perfbench::run_qmpid_mix(opt);
    } else {
      return usage();
    }
    perfbench::note_sendrecv_replace_defect(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print_table();
  std::printf("%s\n", report.json(perfbench::host::machine_json(git_rev)).c_str());
  return 0;
}
