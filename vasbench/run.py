#!/usr/bin/env python3
"""Builds the tile-server benchmark from source and runs one workload.

    python3 vasbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and compiles
the vas library plus the benchmark into the build directory named by
CARGO_TARGET_DIR (default .bench_build); later runs only relink what
changed. Build output goes to stderr. The benchmark's last stdout line
is the result object, relayed unchanged; the exit code is the
benchmark's (0 only when every output check and validity assertion
passed). Without the repository's sources next to this directory the
build fails and the script exits non-zero without printing a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    if not run_quiet(["cmake", "--build", out, "-j", BUILD_JOBS]):
        return None
    binary = os.path.join(out, "vasbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
