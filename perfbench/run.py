#!/usr/bin/env python3
"""End-to-end benchmark of the CFDlang-to-FPGA flow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds perfbench/ (the flow's
library from src/ plus the driver in perfbench/src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, then runs one workload and passes its output through. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (BENCHMARK.json says why each was chosen):

  chain-sweep       200-point cross product over a 40-contraction chain,
                    swept by an in-process Session (min(4, nproc) workers,
                    cold memory caches, no disk store)
  chain-sweep-dist  the same space sharded by dist::SweepCoordinator over
                    min(4, nproc) forked single-thread worker daemons
  serve-mix         one forked daemon (no disk store, min(2, nproc)
                    workers) per round, warmed up during set-up;
                    min(2, nproc) closed-loop clients send a seeded
                    Zipf-like mix of small Helmholtz compile requests

End-to-end metrics (--trace 0), reported by every workload:

  setup_s           median set-up time of a round: inputs, forked
                    daemons/workers up to readiness, reference outputs
  points_per_s      design points compiled per second (serve-mix: compile
                    requests per second)
  request_p50_ms    latency of a request until its result is in: a sweep's
  request_p99_ms    design point from sweep start to its row completing,
                    or a daemon compile round trip (percentiles per sweep
                    or daemon round, median over the run's rounds)
  compile_cold_ms   cold compile time per round: the whole sweep; the
                    daemon-side compile_ms of cache misses
  best_latency_cycles  modeled kernel latency of the fastest design
  correct_frac      operations whose output checks passed, over attempted
  peak_rss_mb       peak resident memory of the bench or its largest child

--trace 1 measures S/2 seconds untraced and S/2 seconds traced, replays
every distinct stage key through the stages' public entry points and
reports the per-layer metrics of BENCHMARK.json, the tracing overhead and
check.failed_frac. The traced chain-sweep run also publishes every stage
prefix to a disk store and loads it back (store), validates the fastest
frontier design (eval) and reports the modeled speedup of the default
p=11 system over the A53 model (paper: 12x). The spans land in
.bench_run/traces/.

Extra arguments (for example --sweep-digest FILE) go to the driver
unchanged. Exit status: the driver's (0 = every check passed), or 2 when
the sources or the build are missing.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["chain-sweep", "chain-sweep-dist", "serve-mix"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Session.h")):
        fail("no flow sources under src/; run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "cfd_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no " + binary)
    return binary


def run_driver(binary, argv, capture=False):
    """Runs the driver in its own process group, so a timeout also stops
    every daemon and worker it forked. Returns (exit code, stdout or
    None when not captured)."""
    process = subprocess.Popen([binary] + argv, cwd=ROOT, text=True,
                               stdout=subprocess.PIPE if capture else None,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        return process.returncode, out
    except BaseException as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if isinstance(error, subprocess.TimeoutExpired):
            fail("driver timed out after %d s" % RUN_TIMEOUT_S)
        raise


def run_all(binary, args, extra):
    """Runs every workload once and prints one table of its metrics."""
    status = 0
    for workload in WORKLOADS:
        code, out = run_driver(binary, driver_args(workload, args) + extra,
                               capture=True)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        print("%s: correct=%s attempted=%s failed=%s" % (
            workload, result.get("correct"), result.get("attempted"),
            result.get("failed")))
        for name, metric in sorted(result.get("metrics", {}).items()):
            print("  %-28s %16.6g %s" % (name, metric["value"],
                                         metric["unit"]))
        for line in lines[:-1]:
            if "speedup" in line:
                print(" " + line)
        status = status or code
    return status


def driver_args(workload, args):
    return ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    binary = build()
    if args.workload == "all":
        sys.exit(run_all(binary, args, extra))
    code, _ = run_driver(binary, driver_args(args.workload, args) + extra)
    sys.exit(code)


if __name__ == "__main__":
    main()
