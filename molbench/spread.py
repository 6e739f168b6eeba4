#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

Usage (from the root of the repository):

    python3 molbench/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                               [--seconds S] [--values] [WORKLOAD ...]

For every workload (default: all in BENCHMARK.json) the benchmark runs
`--runs` times, seed after seed, one run at a time.  For each metric the
table gives the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median.  With --trace 0 the spread is compared with the metric's bound
from BENCHMARK.json; "ok" means it is below a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "molbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = [json.loads(l.split(" ", 1)[1]) for l in lines
             if l.startswith("molbench-stamp ")]
    result["steal"] = stamp[0].get("cpu_steal_pct", 0.0) if stamp else 0.0
    result["host"] = stamp[0].get("host_loop_ms", 0.0) if stamp else 0.0
    if not result["correct"] or result["failed"]:
        print(f"  seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", file=sys.stderr)
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--values", action="store_true",
                    help="also print every run's value")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in workloads:
        values = {}
        steal, host = [], []
        for k in range(args.runs):
            r = run_once(w, args.first_seed + k, args.seconds, args.trace)
            steal.append(r["steal"])
            host.append(r["host"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "OVER BOUND")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:30s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  {verdict}")
            if args.values:
                print("      " + " ".join(f"{v:.4g}" for v in vs))
        print("  cpu_steal_pct per run: " + " ".join(f"{v:.2f}" for v in steal))
        q1, _, q3 = statistics.quantiles(host, n=4)
        print("  host_loop_ms per run:  " + " ".join(f"{v:.2f}" for v in host)
              + f"  (spread {(q3 - q1) / statistics.median(host):.4f})")
        sys.stdout.flush()
    if args.trace == 0:
        print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
