#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (perfbench) from the repository root.

    python3 perfbench/run.py --workload put_serial --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the repository
root; database directories are made there too and removed afterwards. The last
line of standard output is the benchmark's JSON result. Build output goes to
standard error. The exit code is the benchmark's: 0 on success, 1 on a
correctness mismatch, 2 when it could not be built or run.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(cmake_dir, env):
    """Configures once, then builds incrementally. Returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(cmake_dir, "perfbench")


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    base = build_dir()
    # Compilers and the benchmark keep their temporary files inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(base, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(os.path.join(base, "cmake"), env)
    if binary is None:
        return 2
    work_dir = os.path.join(base, "runs", "%s-%d" % (args.workload, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir, "--out-dir", os.path.join(base, "out")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
                              env=env)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stdout)
        return 2
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        reported = list(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, TypeError):
        reported = None
    declared = declared_metrics(args.trace)
    if reported is None or (declared is not None and reported != declared):
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: result metrics %s differ from BENCHMARK.json %s\n"
                         % (reported, declared))
        return 2
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
