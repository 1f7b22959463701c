#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its result line.

    python3 perfbench/run.py --workload adaptive-synth --seed 1 --seconds 20 --trace 0

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the repository's
libraries from source) into .bench_build/ at the repository root, runs the
workload in a private scratch directory under .bench_build/runs/ that is
removed afterwards, and prints one JSON object as the last stdout line:
{"correct", "attempted", "failed", "metrics"}. Build output, the binary's
tables and check failures go to stderr; the full result document (machine
provenance, seed, pool size, SIMD level, net profile) and, with --trace 1,
the span trace land in .bench_build/results/.

With --trace 0, set-up is sampled three times, each in a fresh process with
an empty cache dir (the GEMM autotune runs once per process), and setup_s is
their median; the measured process itself runs on the compiled-default GEMM
blocking (see src/main.cpp). The binary runs without any XPDNN_* variable of
the calling environment. The exit code is the binary's: non-zero when an
output check failed or the binary could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "xpbench")
RESULTS = os.path.join(BUILD, "results")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170


def build():
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", CMAKE_DIR, "--target", "xpbench", "-j", "4"],
                   stdout=sys.stderr, check=True)


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["adaptive-synth", "regression-grid", "daemon-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tasks", type=int, default=0,
                        help="tasks per cell (default: the workload's own; smoke tests)")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    started = time.monotonic()
    run_dir = os.path.join(BUILD, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    common = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--tasks", str(args.tasks)]
    # The program's XPDNN_* knobs (threads, SIMD level, GEMM tuning, cache
    # dir) come from the binary alone, never from the calling shell.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XPDNN_")}
    try:
        setups = []
        if args.trace == 0:
            for i in range(SETUP_SAMPLES):
                sample = subprocess.run(
                    common + ["--trace", "0", "--setup-only",
                              "--dir", os.path.join(run_dir, f"setup{i}")],
                    stdout=subprocess.PIPE, text=True, check=True, env=env,
                    timeout=TIME_LIMIT_S - (time.monotonic() - started))
                setups.append(last_json_line(sample.stdout)["setup_s"])
        result = subprocess.run(
            common + ["--trace", str(args.trace), "--dir", os.path.join(run_dir, "main"),
                      "--out", RESULTS],
            stdout=subprocess.PIPE, text=True, env=env,
            timeout=TIME_LIMIT_S - (time.monotonic() - started))
        outcome = last_json_line(result.stdout)
        if outcome is None or "metrics" not in outcome:
            print(f"run.py: xpbench exited {result.returncode} without a result",
                  file=sys.stderr)
            return result.returncode or 1
        if args.trace == 0:
            outcome["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(json.dumps(outcome), flush=True)
        return result.returncode
    except (subprocess.SubprocessError, OSError, ValueError, KeyError, TypeError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
