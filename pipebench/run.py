#!/usr/bin/env python3
"""Build and run the pipeline benchmark from the root of a checkout.

    python3 pipebench/run.py --workload {query,campaign-cold,campaign-warm,all}
                             --seed N --seconds S --trace {0,1}

Builds pipebench/ (and the library it links) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when unset, then runs the benchmark
binary there.  Build output goes to stderr; standard output is the
benchmark's own, whose last line is the JSON result.  Exits non-zero,
without a result, when the checkout has no library sources or the build
or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "3"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "decision.hh")):
        fail(f"no library sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "pipeline_bench",
         "-j", BUILD_JOBS],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "pipeline_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)

    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--workdir", workdir],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        fail("benchmark printed no result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
