#!/usr/bin/env python3
"""Builds and runs the allocator benchmark.

Usage, from the repository root:

    python3 allocbench/run.py --workload cold_solve --seed 11 --seconds 20 --trace 0
    python3 allocbench/run.py --repro stay_branch

The library is compiled from ../src into .bench_build/ (an incremental
build after the first run). The binary's human-readable lines are passed
through; the last line of standard output is the result object, checked
here against BENCHMARK.json and cut down to the run's kind of metrics (see
validate). Any failure to build, run or validate exits non-zero without a
result line.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "allocbench"
MANIFEST = ROOT / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_manifest():
    try:
        return json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {MANIFEST.name}: {err}")


def build():
    """Configures once, then builds the binary; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) are missing; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "allocbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_binary(args):
    """Runs the binary, echoes its output and returns its stdout lines."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    if not lines:
        fail("benchmark printed nothing")
    return lines


def validate(result, manifest, trace):
    """Checks the binary's result object against BENCHMARK.json.

    Every metric the binary measured must be declared there, with its unit.
    Returns the result holding the run's kind of metrics only, in manifest
    order: every end-to-end metric must have been measured; a per-layer
    metric of a layer the workload does not exercise reads 0.
    """
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    declared = {m["name"]: m["unit"]
                for m in manifest["end_to_end"] + manifest["per_layer"]}
    for name, metric in result["metrics"].items():
        if not NAME_RE.match(name):
            fail(f"bad metric name {name!r}")
        if name not in declared:
            fail(f"metric {name} is not in BENCHMARK.json")
        if set(metric) != {"value", "unit"} or metric["unit"] != declared[name]:
            fail(f"metric {name} is {metric}, expected unit {declared[name]}")
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"metric {name} has non-numeric value {value!r}")
    metrics = {}
    for spec in manifest["per_layer" if trace else "end_to_end"]:
        metric = result["metrics"].get(spec["name"])
        if metric is None:
            if not trace:
                fail(f"end-to-end metric {spec['name']} was not measured")
            metric = {"value": 0.0, "unit": spec["unit"]}
        metrics[spec["name"]] = metric
    return dict(result, metrics=metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repro", help="run a named failure reproducer")
    opts = parser.parse_args()

    manifest = load_manifest()
    if opts.repro:
        build()
        print("\n".join(run_binary(["--repro", opts.repro])), flush=True)
        return

    workloads = [w["name"] for w in manifest["workloads"]]
    if opts.workload not in workloads:
        fail(f"unknown workload {opts.workload!r}; choose from {workloads}")
    if opts.seed is None or opts.seed < 0:
        fail("--seed must be a non-negative integer")
    if opts.seconds is None or not opts.seconds > 0:
        fail("--seconds must be positive")

    build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        spans = BUILD_DIR / "spans"
        spans.mkdir(exist_ok=True)
        args += ["--spans", str(spans / f"{opts.workload}-{opts.seed}.json")]
    lines = run_binary(args)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("last line of the benchmark's output is not JSON")
    result = validate(result, manifest, opts.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
