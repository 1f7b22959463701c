#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for a couple of seconds on tiny task
pools, untraced and traced, and asserts that each run is correct with no
failed operation, that the result line carries exactly the metrics
BENCHMARK.json names (every end-to-end value non-zero), and that run.py
exits non-zero without a result line when the repository around the
benchmark is missing. Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            result = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "2",
                         "--trace", str(trace), "--tasks", "1")
            check(result.returncode == 0,
                  f"{label}: exit {result.returncode}\n{result.stderr[-2000:]}")
            outcome = json.loads(result.stdout.strip().splitlines()[-1])
            check(set(outcome) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(outcome)}")
            check(outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] > 0,
                  f"{label}: correct={outcome['correct']} failed={outcome['failed']}")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in outcome["metrics"].items()}
            check(got == expected, f"{label}: metrics differ from BENCHMARK.json")
            for name, metric in outcome["metrics"].items():
                value = metric["value"]
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{label}: {name} = {value}")
                check(trace == 1 or value > 0, f"{label}: {name} is 0")
            print(f"ok  {label}: attempted={outcome['attempted']}", flush=True)

    # Without the repository around it the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    check(result.returncode != 0, "bare checkout: run.py exited 0")
    check('"metrics"' not in result.stdout, "bare checkout: run.py printed a result")
    print("ok  bare checkout fails without a result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"FAIL {error}", file=sys.stderr)
        sys.exit(1)
