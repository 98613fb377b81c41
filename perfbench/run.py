#!/usr/bin/env python3
"""EBLNet benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
simulator library and the eblbench benchmark program from source into .bench_build/
(CMake, Release, about 30 s on 4 cores); later calls rebuild incrementally.
It then runs perfbench's eblbench binary, checks that the metrics it
printed are exactly the ones BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1), and passes its
output through, so the last line of stdout is the JSON result. Traced runs
also leave their spans in .bench_build/spans/<workload>-<seed>.jsonl.

Exits non-zero, without printing a result, when the build fails (for
example when the simulator sources are missing), eblbench fails, or the
metric names do not match BENCHMARK.json.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure on first use, then build; returns the build directory.

    The build log goes to .bench_build/perfbench-build.log so stdout stays
    reserved for the result.
    """
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                # A half-configured tree must not be mistaken for a good one.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail(f"build failed (exit {rc}); see {log_path}")
    return BUILD_DIR


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}

    build_dir = build()
    cmd = [os.path.join(build_dir, "eblbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"eblbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"eblbench exited with {proc.returncode}")

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("eblbench printed no JSON result")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    bad = [n for n in printed if not NAME_RE.match(n)]
    if bad:
        fail(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(printed) & set(expected) if printed[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"unit mismatch {units}")

    print("\n".join(lines))


if __name__ == "__main__":
    main()
