#!/usr/bin/env python3
"""Checks that the benchmark is steady on one build.

    python3 vasbench/steady.py --workload <name> [--runs 10]

Runs two sets of `--runs` runs of one workload, alternating between the
sets run by run (A1 B1 A2 B2 ...), with seeds 1..runs in both sets.
For each end-to-end metric of BENCHMARK.json it prints each set's
median and quartiles (statistics.quantiles, n=4), the spread (q3 - q1)
as a share of the median, and whether set B's median is within the
metric's bound of set A's. A spread at or above a third of the bound is
flagged as too wide for comparing commits. The exit code is 1 when a
run fails, a spread exceeds its bound, or the two medians disagree by
more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    sets = [[] for _ in range(SETS)]
    ok = True
    for seed in range(1, args.runs + 1):
        for index, results in enumerate(sets):
            values = run_once(args.workload, seed, bench["run_seconds"])
            label = chr(ord("A") + index)
            if values is None:
                print(f"run {label}{seed}: FAILED", flush=True)
                ok = False
                continue
            results.append(values)
            shown = " ".join(f"{m['name']}={values[m['name']]:.6g}" for m in metrics)
            print(f"run {label}{seed}: {shown}", flush=True)
    print()
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for index, results in enumerate(sets):
            values = [r[name] for r in results]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            flag = ""
            if spread > bound:
                flag = "  SPREAD ABOVE BOUND"
                ok = False
            elif spread >= bound / 3:
                flag = "  spread >= bound/3"
            medians.append(median)
            print(f"{name:22s} set {chr(ord('A') + index)}: median {median:.6g}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                  f" (bound {bound}){flag}")
        if len(medians) == SETS:
            first, second = medians
            worse = (second - first) if metric["better"] == "lower" else (first - second)
            share = worse / abs(first) if first else 0.0
            agree = share <= bound
            ok = ok and agree
            print(f"{name:22s} medians {'agree' if agree else 'DISAGREE'}:"
                  f" second is {share:+.4f} worse (bound {bound})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
