#!/usr/bin/env python3
"""Steadiness check: runs each workload in two sets of runs on one build.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--seconds S]

Run from the repository root. Set k (1 or 2) uses seeds 100*k+1 ..
100*k+runs. For every end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles (Python's statistics.quantiles, n=4), the spread
(q3 - q1) / median against the metric's bound, and how far the second median
lies from the first. It also prints the share of failed operations of each
set, which must be identical. Exits 1 if a spread exceeds its bound, a
second median is worse than the first by more than the bound, or the failed
shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


SETS = 2


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = []
    for w in workloads:
        sets = []
        for k in range(1, SETS + 1):
            runs = [run_once(bench["command"], w, 100 * k + i, seconds)
                    for i in range(1, args.runs + 1)]
            sets.append(runs)
            share = {(r["failed"], r["attempted"]) for r in runs}
            wrong = [r for r in runs if not r["correct"]]
            print(f"{w} set {k}: failed/attempted per run {sorted(share)}"
                  f"{'  INCORRECT RUNS: %d' % len(wrong) if wrong else ''}")
            if wrong:
                bad.append(f"{w}: incorrect runs")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if len(set(shares)) > 1:
            bad.append(f"{w}: failed shares differ {shares}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = f"  {name:<30}"
            medians = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s]
                q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
                spread = (q3 - q1) / q2 if q2 else 0.0
                medians.append(q2)
                row += f" | med {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
                if spread > bound:
                    bad.append(f"{w}: {name} spread {spread:.4f} > bound {bound}")
                elif spread > bound / 3:
                    row += " (> bound/3)"
            if medians[0]:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                row += f" | 2nd vs 1st {worse:+.4f} (bound {bound})"
                if worse > bound:
                    bad.append(f"{w}: {name} second median worse by {worse:.4f}")
            print(row)
        sys.stdout.flush()
    for b in bad:
        print("FAIL:", b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
