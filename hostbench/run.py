#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every call configures and builds the
simulator library from src/ together with the hostbench binary under
.bench_build/hostbench (Release); only the first call compiles everything.
Build output goes to stderr, so the last line of stdout is the binary's
JSON result. Extra flags (--scale tiny, --pins FILE, --trace-out FILE)
are passed through. With --trace 1 the Chrome trace is written to
.bench_build/hostbench/trace-<workload>-seed<N>.json unless --trace-out
names another file. The exit code is the binary's, or 1 when the build
fails or the binary exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
PINS = os.path.join(HERE, "pins.json")

# A run must end within 180 s; stop the binary a little earlier so the
# wrapper can still clean up and report.
BINARY_TIMEOUT_S = 175


def build():
    """Configure and build; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"hostbench: cannot run {step[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("hostbench: build failed", file=sys.stderr)
            return False
    return True


def flag(args, name):
    """Value of `name` in a flag/value argument list, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main(args):
    if not build():
        return 1
    extra = []
    if flag(args, "--pins") is None:
        extra += ["--pins", PINS]
    if flag(args, "--trace") == "1" and flag(args, "--trace-out") is None:
        name = f"trace-{flag(args, '--workload')}-seed{flag(args, '--seed')}.json"
        extra += ["--trace-out", os.path.join(BUILD, name)]
    sys.stdout.flush()
    bench = subprocess.Popen([BINARY] + args + extra)
    try:
        return bench.wait(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        bench.kill()
        bench.wait()
        print(f"hostbench: binary exceeded {BINARY_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
