#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs two sets of ten runs of one build — each run with its own seed — and
prints, per workload and end-to-end metric, each set's median and quartiles,
the spread (interquartile range over the median) and the gap between the two
sets' medians, each against the metric's bound from BENCHMARK.json. A spread
above its bound, or a gap above it in either direction, is flagged. The
share of failed operations must be identical across runs.

Usage (from the root of a checkout):

    python3 espbench/steady.py [--workloads a,b] [--seed-base N]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
RUNS = 10


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def change(first, second):
    """Relative change of `second` against `first`."""
    return (second - first) / first if first else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    ok = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = args.seed_base + 1000 * s + i
                r = run_once(bench["command"], workload, seed, seconds)
                if not r["correct"]:
                    print("%s seed %d: outputs incorrect" % (workload, seed))
                    ok = False
                runs.append(r)
                print("  %s set %d seed %d: %s" % (
                    workload, s, seed,
                    " ".join("%s=%.6g" % (m["name"],
                                          r["metrics"][m["name"]]["value"])
                             for m in metrics)), flush=True)
            sets.append(runs)

        print("\n== %s (%d runs x %d sets, %g s) ==" % (
            workload, RUNS, SETS, seconds))
        fail_shares = {r["failed"] / r["attempted"]
                       for runs in sets for r in runs}
        if len(fail_shares) > 1:
            print("  failed-operation share differs across runs: %s" %
                  sorted(fail_shares))
            ok = False
        print("  %-20s %-5s %12s %12s %12s %8s %8s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "gap",
            "bound"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                gap = change(medians[0], med)
                flag = ""
                if spread > bound:
                    flag += " SPREAD>BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag += " spread>bound/3"
                if abs(gap) > bound:
                    flag += " GAP>BOUND"
                    ok = False
                print("  %-20s %-5d %12.6g %12.6g %12.6g %8.3f %8.3f %8.3f%s"
                      % (name, s, q1, med, q3, spread, gap, bound, flag))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
