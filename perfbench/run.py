#!/usr/bin/env python3
"""Build the Voltron benchmark harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures|mesh16|serve \
        [--seed N] [--seconds S] [--trace 0|1]

The harness (perfbench/, which compiles the libraries under src/) is
configured and built into $CARGO_TARGET_DIR, or .bench_build when that is
unset; build output goes to standard error. The last line of standard
output is the run's result as one JSON object. Exits non-zero without a
result when the sources are missing, the build fails, or the run fails.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def git_rev(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="0xb0157a")
    parser.add_argument("--seconds",
                        help="measured time; default: BENCHMARK.json's "
                        "run_seconds")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no Voltron sources under " + root + "/src")
        return 1
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not build(root, build_dir):
        log("build failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--trace", args.trace,
           "--spec", os.path.join(root, "BENCHMARK.json"),
           "--scratch", os.path.join(build_root, "tmp"),
           "--git-rev", git_rev(root)]
    if args.seconds is not None:
        cmd += ["--seconds", args.seconds]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
