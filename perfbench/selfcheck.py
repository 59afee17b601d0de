#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py [--seconds S]

Runs every workload in BENCHMARK.json briefly with --trace 0 and --trace 1
and verifies that each run passes its output checks and prints the result
line the contract asks for: exactly the keys correct, attempted, failed and
metrics, with every metric BENCHMARK.json names for that mode, in its unit.
Then repeats one traced run with the same seed and requires identical
kernel-replay checksums. Exits 0 when everything holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def run(workload, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if len(lines) < 2:
        return None, None, f"exit {r.returncode}, no result: {r.stderr[-400:]}"
    try:
        return json.loads(lines[-2]), json.loads(lines[-1]), None
    except ValueError as e:
        return None, None, f"unparsable output: {e}"


def check_result(result, wanted):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("output checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unnamed metrics {sorted(extra)}")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    failures = 0
    first_checksums = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            wanted = spec["per_layer" if trace else "end_to_end"]
            info, result, err = run(w["name"], trace, args.seconds)
            problems = [err] if err else check_result(result, wanted)
            if info and info.get("failures"):
                problems += info["failures"]
            if trace and info:
                first_checksums[w["name"]] = info["checksums"]
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{w['name']:14s} trace={trace} {status}", flush=True)
            failures += bool(problems)

    name = spec["workloads"][0]["name"]
    info, _, err = run(name, 1, args.seconds)
    again = info["checksums"] if info else None
    if err or not again or again != first_checksums.get(name):
        print(f"{name:14s} kernel checksums do not repeat: "
              f"{first_checksums.get(name)} vs {again} {err or ''}")
        failures += 1
    else:
        print(f"{name:14s} kernel checksums repeat ({len(again)} kernels)")
    print("selfcheck:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
