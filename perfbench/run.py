#!/usr/bin/env python3
"""Repository benchmark for the WGTT simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator libraries and the benchmark runner in Release mode
(under $CARGO_TARGET_DIR, default .bench_build), runs one workload in a fresh
process, checks its outputs and prints, as the last line of standard output,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics. The line before it is a JSON object
with the environment stamp (nproc, compiler, build type, commit, load
average), every failed check, the kernel-replay checksums and, for traced
runs, per-layer self time from the recorded spans. The exit code is 0 when
every check passed, 1 when one failed or the runner broke, 2 on bad usage or
missing sources, and 3 when the build is not an optimised, assert-free one.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUNNER_TIMEOUT_S = 170
# setup_s is the mean over this many fresh processes of each one's median:
# set-up time settles into a per-process level (page placement), so one
# process's median would swing between levels from run to run.
SETUP_PROCESSES = 9


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {SPEC_PATH}: {e}", 2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds the runner; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/CMakeLists.txt) not found next to perfbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "--target", "wgtt_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {cmd[:2]} failed: {e}", 2)
        if r.returncode != 0:
            die(f"build step {cmd[:2]} exited {r.returncode}", 2)
    return os.path.join(out_dir, "wgtt_perfbench")


def source_commit():
    """git HEAD when available, else a hash of the simulator sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def layer_self_ms(spans_path):
    """Self time per layer: each span's duration minus its children's."""
    try:
        with open(spans_path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError):
        return {}
    child_us = {}
    for e in events:
        parent = e["args"]["parent"]
        child_us[parent] = child_us.get(parent, 0.0) + e["dur"]
    out = {}
    for e in events:
        own = e["dur"] - child_us.get(e["args"]["id"], 0.0)
        out[e["cat"]] = out.get(e["cat"], 0.0) + own / 1000.0
    return {k: round(v, 3) for k, v in sorted(out.items())}


def run_bench(cmd):
    """Runs the runner once and returns its parsed report."""
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"wgtt_perfbench exceeded {RUNNER_TIMEOUT_S} s", 1)
    sys.stderr.write(r.stderr)
    if r.returncode == 3:
        die("refusing timings from an unoptimised or assert-enabled build", 3)
    if r.returncode != 0:
        die(f"wgtt_perfbench exited {r.returncode}", 1)
    try:
        report = json.loads(r.stdout)
    except ValueError as e:
        die(f"wgtt_perfbench printed no report: {e}", 1)
    if not report.get("optimized") or report.get("build_type") != "Release":
        die("refusing timings from a non-Release build", 3)
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; expected one of {names}", 2)
    if args.seconds <= 0 or args.seed < 0:
        die("--seconds must be positive and --seed non-negative", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    spans_path = os.path.join(out_dir, f"spans_{args.workload}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans_path]
    report = run_bench(cmd)
    setup_medians = []
    if not args.trace:
        setup_medians.append(report["metrics"]["setup_s"]["value"])
        for _ in range(SETUP_PROCESSES - 1):
            probe = run_bench(cmd + ["--setup-only", "1"])
            setup_medians.append(probe["metrics"]["setup_s"]["value"])
        report["metrics"]["setup_s"]["value"] = sum(setup_medians) / len(setup_medians)

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"metric {m['name']} missing or not in {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = set(report["metrics"]) - {m["name"] for m in wanted}
    if extra:
        die(f"wgtt_perfbench reported metrics BENCHMARK.json does not name: {sorted(extra)}", 1)

    info = {
        "env": {
            "nproc": os.cpu_count(),
            "compiler": "g++ " + report["compiler"],
            "build_type": report["build_type"],
            "commit": source_commit(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
        },
        "workload": args.workload,
        "seed": args.seed,
        "failures": report["failures"],
        "checksums": report["checksums"],
        "drives": report["drives"],
    }
    if setup_medians:
        info["setup_medians_s"] = setup_medians
    if args.trace:
        info["layer_self_ms"] = layer_self_ms(spans_path)
    print(json.dumps(info))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
