#!/usr/bin/env python3
"""Steadiness check: run every workload in two interleaved sets of runs.

    python3 opbench/steady.py [--runs N]

Every workload of BENCHMARK.json runs for its run_seconds.  Set A uses
seeds 1..N, set B seeds 1001..1000+N; runs alternate A, B per workload so
drift over time hits both sets alike.  For every end-to-end metric it
prints each set's median, each set's quartile spread (Q3 - Q1 over the
median, from statistics.quantiles(n=4)), the spread of all 2N runs
pooled, and whether the sets agree: the two medians differ by at most
the metric's bound (as a share of set A's), and both spreads stay within
the bound.  It also compares the share of failed operations, which must
be identical.  Exits 1 when anything disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "opbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    sets = {n: ([], []) for n in names}
    for i in range(args.runs):
        for n in names:
            for s, seed in ((0, 1 + i), (1, 1001 + i)):
                r = run_once(n, seed, seconds)
                sets[n][s].append(r)
                print(f"# {n} set {'AB'[s]} seed {seed}: attempted "
                      f"{r['attempted']} failed {r['failed']}", flush=True)
    ok = True
    print(f"{'workload':<11} {'metric':<18} {'median A':>12} {'median B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'pooled':>7} {'bound':>6}  agree")
    for n in names:
        a, b = sets[n]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb, sp = spread(va), spread(vb), spread(va + vb)
            agree = (abs(mb - ma) / ma <= bound
                     and sa <= bound and sb <= bound)
            ok = ok and agree
            print(f"{n:<11} {name:<18} {ma:>12.5g} {mb:>12.5g} {sa:>9.3f} "
                  f"{sb:>9.3f} {sp:>7.3f} {bound:>6.2f}  {'yes' if agree else 'NO'}")
        fa = {r["failed"] / r["attempted"] for r in a}
        fb = {r["failed"] / r["attempted"] for r in b}
        same = len(fa | fb) == 1
        ok = ok and same
        print(f"{n:<11} failed share: A {sorted(fa)} B {sorted(fb)}  "
              f"{'yes' if same else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
