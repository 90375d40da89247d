#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Run from the repository root. It asserts that

  1. the committed sweep digest passes: chain-sweep reports correct=true
     and correct_frac 1;
  2. a corrupted digest is caught: chain-sweep reports correct=false,
     correct_frac below 1 untraced and check.failed_frac above 0 traced,
     and exits 1;
  3. a directory holding only BENCHMARK.json and perfbench/ (no flow
     sources) makes run.py exit non-zero without printing a result.

Scratch files go under .bench_run/selftest and are removed afterwards.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_run", "selftest")


def bench(*argv, cwd=ROOT, script=os.path.join(ROOT, "perfbench", "run.py")):
    done = subprocess.run(["python3", script, "--seed", "1", "--seconds", "1"]
                          + list(argv), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return done.returncode, result


def check(condition, message):
    if not condition:
        print("selftest FAILED: " + message)
        sys.exit(1)
    print("ok: " + message)


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        code, result = bench("--workload", "chain-sweep", "--trace", "0")
        check(code == 0 and result["correct"] and
              result["metrics"]["correct_frac"]["value"] == 1.0,
              "committed digest passes")

        with open(os.path.join(ROOT, "perfbench",
                               "chain_sweep_report.digest")) as f:
            digest, size = f.read().split()
        flipped = ("1" if digest[0] != "1" else "2") + digest[1:]
        corrupt = os.path.join(SCRATCH, "corrupt.digest")
        with open(corrupt, "w") as f:
            f.write(flipped + " " + size + "\n")

        code, result = bench("--workload", "chain-sweep", "--trace", "0",
                             "--sweep-digest", corrupt)
        check(code == 1 and not result["correct"] and result["failed"] > 0 and
              result["metrics"]["correct_frac"]["value"] < 1.0,
              "corrupted digest drives correct_frac below 1")
        code, result = bench("--workload", "chain-sweep", "--trace", "1",
                             "--sweep-digest", corrupt)
        check(code == 1 and not result["correct"] and
              result["metrics"]["check.failed_frac"]["value"] > 0,
              "corrupted digest drives check.failed_frac above 0")

        bare = os.path.join(SCRATCH, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        code, result = bench("--workload", "chain-sweep", "--trace", "0",
                             cwd=bare,
                             script=os.path.join(bare, "perfbench", "run.py"))
        check(code != 0 and result is None,
              "without the flow sources run.py fails and prints no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
