#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steadiness.py --workloads dsl-small,ingest \
        --seeds 1-10

For every end-to-end metric it prints the median over the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run it twice (two sets) and compare
the medians to check that a set of runs agrees with itself over time.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or str(spec["run_seconds"])
    failed = False
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", seconds,
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d failed:\n%s" % (w, seed, out.stderr))
                failed = True
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            vals = {k: v["value"] for k, v in res["metrics"].items()}
            print("%s seed %d correct=%s attempted=%d failed=%d %s" % (
                w, seed, res["correct"], res["attempted"], res["failed"],
                " ".join("%s=%.5g" % kv for kv in vals.items())), flush=True)
            failed |= not res["correct"]
            runs.append(vals)
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            v = [r[name] for r in runs]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            print("  %-12s %-18s median %-12.5g spread %6.1f%%  bound %4.0f%%"
                  % (w, name, med, 100 * spread, 100 * bound))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
