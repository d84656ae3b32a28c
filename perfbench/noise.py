#!/usr/bin/env python3
"""Noise mode: repeat a workload and print each metric's median and quartiles.

Runs the benchmark command from BENCHMARK.json once per seed and reports,
for every metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next
to the metric's bound. A metric is steady when its spread stays below a
third of its bound.

    python3 perfbench/noise.py --workload scale --seeds 1-5 --seconds 20
    python3 perfbench/noise.py --workload serve --seeds 1,2,3 --trace 1

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
        print(line, flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{'metric':<24} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:<24} {units[name]:>6} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
              f"{bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
