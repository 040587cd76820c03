#!/usr/bin/env python3
"""End-to-end benchmark of the QMPI library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --selftest

Run from the root of the repository. Builds perfbench/ (with the library
sources one directory up) into .bench_build/, runs one workload and prints
its table followed by one JSON result line. With --trace 0 the result holds
the end-to-end metrics listed in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics, and the Chrome trace file is written to .bench_build/out/.
A traced run's table shows every metric. --workload all runs the three
workloads in turn.
--selftest runs every workload for a few ops and asserts that every named
metric is printed with its unit and that every check ran.
"""

import argparse
import json
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
OUT = BUILD / "out"
RUN_LIMIT_S = 170

WORKLOADS = ("tfim_trotter", "teleport_ring", "qmpid_mix")

# Checks each workload must report; "_traced" twins appear with --trace 1.
CHECKS = {
    "tfim_trotter": ["tfim_final_state_matches_reference",
                     "tfim_copy_epr_is_2_per_step"],
    "teleport_ring": ["ring_move_is_1_epr_2_bits_per_teleport",
                      "ring_z_matches_cos_theta_every_rotation"],
    "qmpid_mix": ["mix_jobs_match_solo_replay", "mix_no_rejected_opens",
                  "mix_ops_per_job_exact"],
}
TRACE_CHECKS = ["trace_layer_sum_within_tolerance", "trace_file_written"]
P90_CHECK = "p90_has_10_samples_beyond"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("run from the repository root: the library sources are missing")
    cache = BUILD / "perfbench" / "CMakeCache.txt"
    if not cache.is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD / "perfbench"),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD / "perfbench"),
                    "--target", "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_rev():
    """HEAD's commit when the checkout carries its .git, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_binary(workload, seed, seconds, trace, extra=()):
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT), "--git-rev", git_rev(), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_LIMIT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    return record, lines[:-1]


def trace_file_parses(record):
    for notice in record["notices"]:
        if notice.startswith("trace_file: "):
            try:
                with open(notice[len("trace_file: "):]) as f:
                    return bool(json.load(f)["traceEvents"])
            except (OSError, ValueError, KeyError):
                return False
    return False


def missing_metrics(record, specs):
    """Names of metrics in `specs` absent from `record` or with another unit."""
    got = record["metrics"]
    return [m["name"] for m in specs
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]
            or got[m["name"]]["value"] is None]


def selftest(spec):
    for workload in WORKLOADS:
        record, _ = run_binary(workload, 1, 0.5, 1,
                               ("--min-ops", "3", "--setups", "2"))
        bad = missing_metrics(record, spec["end_to_end"] + spec["per_layer"])
        if bad:
            fail(f"selftest {workload}: metrics missing or mis-united: {bad}")
        checks = {c["name"]: c for c in record["checks"]}
        want = CHECKS[workload] + [c + "_traced" for c in CHECKS[workload]]
        want += TRACE_CHECKS
        absent = [c for c in want if c not in checks]
        if absent:
            fail(f"selftest {workload}: checks did not run: {absent}")
        failed = [c for c, v in checks.items() if not v["ok"] and c != P90_CHECK]
        if failed or not trace_file_parses(record):
            fail(f"selftest {workload}: failed checks {failed} "
                 "or unreadable trace file")
        print(f"selftest {workload}: {len(record['metrics'])} metrics, "
              f"{len(checks)} checks ok")
    print("selftest ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    if args.selftest:
        selftest(spec)
        return
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in workloads:
        all_correct = run_one(spec, workload, args, start) and all_correct
    # A single workload reports failure in its result line; only the
    # convenience run over all three turns it into an exit code.
    if args.workload == "all" and not all_correct:
        sys.exit(1)


def run_one(spec, workload, args, start):
    """Runs one workload, prints its table and result line; returns correct."""
    record, table = run_binary(workload, args.seed, args.seconds, args.trace)
    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    bad = missing_metrics(record, want)
    if bad:
        fail(f"metrics missing or mis-united: {bad}")
    correct = record["correct"]
    if args.trace:
        correct = correct and trace_file_parses(record)

    (OUT / f"record-{workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(table))
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"elapsed: {time.monotonic() - start:.1f} s")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in want},
    }))
    return correct


if __name__ == "__main__":
    main()
