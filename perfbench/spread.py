#!/usr/bin/env python3
"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload daemon-mixed --seeds 1-10 [--seconds 20] [--trace 0]

For every metric: the median over the runs, the quartile distance
(statistics.quantiles(values, n=4), third minus first) as a share of the
median, and that spread against the metric's bound in BENCHMARK.json. A
spread above a third of its bound is flagged; setup_s is flagged against the
bound itself. Raw values are appended to .bench_build/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    log_path = os.path.join(ROOT, ".bench_build", "spread.jsonl")
    for seed in seed_list(args.seeds):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = [line for line in run.stdout.splitlines() if line.strip()]
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {run.returncode})")
            continue
        outcome = json.loads(lines[-1])
        with open(log_path, "a") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed, **outcome}) + "\n")
        print(f"seed {seed}: correct={outcome['correct']} attempted={outcome['attempted']} "
              f"failed={outcome['failed']}", flush=True)
        for name, metric in outcome["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{'metric':28} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, xs in values.items():
        med = statistics.median(xs)
        spread = 0.0
        if len(xs) >= 2 and med != 0:
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            limit = bound if name == "setup_s" else bound / 3
            flag = "  <-- wide" if spread > limit else ""
        print(f"{name:28} {med:12.6g} {spread:8.3f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    sys.exit(main())
