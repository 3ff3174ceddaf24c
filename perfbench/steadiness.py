#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly with different seeds
and prints, per end-to-end metric, the median, the quartiles and the
relative spread (interquartile distance over the median), next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10]

Run from the root of a checkout. Every workload of BENCHMARK.json runs
with seeds 1..runs for its run_seconds, each run through perfbench/run.py
exactly as a single benchmark run would. A spread at or above the
metric's bound is flagged, as is a share of failed operations that
differs between runs; either makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}, no result")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, bench["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, seeds 1..{args.runs}, "
              f"failed share {sorted(shares)}")
        if len(shares) != 1 or not all(r["correct"] for r in results):
            ok = False
            print("  !! failed share differs between runs, or a run is incorrect")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread >= bound:
                flag = "  !! spread >= bound"
                ok = False
            elif spread >= bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6}  {unit}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
