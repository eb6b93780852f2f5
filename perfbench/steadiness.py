#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
prints every end-to-end metric's median and quartiles next to its bound in
BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--workloads lookup,churn]
                                    [--first-seed 100]

With --runs 1 it is the one command that builds indissd and runs every
workload to its end, printing each metric by name with its unit.

A metric is steady when the distance between its first and third quartile,
as a share of its median, stays below a third of its bound. Runs are
serial: indissd binds the well-known SDP ports on lo. Exits non-zero when a
run fails, a check fails, or the failed-operation share differs between
runs of one workload.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {m: [] for m in bounds}
        shares = set()
        attempted = failed = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", workload, "--seed",
                                      str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace",
                                      "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (
                    workload, seed, proc.returncode, proc.stderr[-3000:]))
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: outputs incorrect\n%s" % (
                    workload, seed, proc.stderr[-3000:]))
                ok = False
            shares.add(fractions.Fraction(result["failed"],
                                          result["attempted"]))
            attempted += result["attempted"]
            failed += result["failed"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        if len(shares) > 1:
            print("%s: failed shares differ between runs: %s" % (
                workload, sorted(shares, key=str)))
            ok = False
        print("\n%s (%d runs, seeds %d..%d): %d operations attempted, %d "
              "failed" % (workload, len(values[next(iter(bounds))]),
                          args.first_seed, args.first_seed + args.runs - 1,
                          attempted, failed))
        print("  %-34s %-6s %12s %12s %12s %8s %8s" % (
            "metric", "unit", "q1", "median", "q3", "spread", "bound"))
        for m, vals in values.items():
            if not vals:
                continue
            bound = bounds[m]
            bound_text = "%.2f" % bound
            if len(vals) < 2:
                print("  %-34s %-6s %12s %12.5g %12s %8s %8s" % (
                    m, units[m], "-", vals[0], "-", "-", bound_text))
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound / 3:
                flag = "  <- above a third of the bound"
            print("  %-34s %-6s %12.5g %12.5g %12.5g %8.3f %8s%s" % (
                m, units[m], q1, med, q3, spread, bound_text, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
