#!/usr/bin/env python3
"""Head-node benchmark entry point.

    python3 headbench/run.py --workload hot|churn --seed N --seconds S --trace 0|1
    python3 headbench/run.py --selftest

Run from the repository root. Builds the repository's libraries and the
benchmark driver from source (CMake, Release) into the directory named
by CARGO_TARGET_DIR, default `.bench_build`, then runs the driver. The
driver's last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build output goes to
standard error. Exits non-zero, without a result, when the sources are
missing or the build fails; exits non-zero when a correctness check
fails.

--selftest builds and runs the benchmark's own tests instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("headbench: no sources to build (src/CMakeLists.txt missing)",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "headbench", "headbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("headbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def run(command):
    """Runs `command`, relaying its output; kills it at the time limit."""
    with subprocess.Popen(command, cwd=ROOT) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("headbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 2
    if args.selftest:
        return run([os.path.join(out, "headbench_selftest")])
    return run([os.path.join(out, "headbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", args.trace,
                "--spans-dir", os.path.join(out, "spans")])


if __name__ == "__main__":
    sys.exit(main())
