#!/usr/bin/env python3
"""Builds and runs the txallo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first invocation configures and
builds perfbench/ -- and with it the library from src/ -- as a Release build
under .bench_build/ (or $CARGO_TARGET_DIR when set); later invocations only
rebuild what changed. Build output goes to stderr. The benchmark's own
lines start with '#', and the last line of stdout is its JSON result.
--trace 1 also writes a Chrome trace-event file next to the build.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seconds one measured run may take; the caller stops waiting at 180.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(base), "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds, by relative path."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(out_dir):
    """Configures (once) and builds the runner; False when either fails."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", out_dir, "--target", "perfbench_run",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(out_dir, "perfbench_run"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-digest", source_digest()]
    if args.trace == 1:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        print(f"perfbench: runner failed (exit {run.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
