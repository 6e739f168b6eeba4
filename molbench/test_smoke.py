#!/usr/bin/env python3
"""The benchmark's own test: every workload, untraced and traced, at tiny
sizes (--smoke) for one second.

Asserts that each run exits 0, that its last line is the result object with
`correct` true and no failed statement, and that it reports exactly the
metrics BENCHMARK.json names for that mode, each a finite number with the
declared unit.  Run from the root of the repository:

    python3 molbench/test_smoke.py
"""

import json
import math
import subprocess
import sys


def check(workload, trace, declared):
    cmd = [sys.executable, "molbench/run.py", "--smoke", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not result.get("attempted", 0) >= 1:
        errors.append("nothing attempted")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(declared):
        errors.append(f"metrics differ: missing {sorted(set(declared) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        if sorted(m) != ["unit", "value"] or m["unit"] != unit:
            errors.append(f"{name}: {m} (declared unit {unit})")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{name}: value {m['value']!r}")
    return errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for w in bench["workloads"]:
        for trace, declared in modes.items():
            errors = check(w["name"], trace, declared)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']:12s} trace={trace}: {status}")
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
