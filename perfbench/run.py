#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload lint_full|solve_mix|server_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The Rust package next to this file is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build in
the checkout), then run with KPT_THREADS=1 (every workload's library
calls stay single-threaded; server_mix sets its own 2 pool workers).
The benchmark's standard output passes through unchanged: its last line
is the result object. Build output goes to standard error. The exit code
is the benchmark's, or non-zero when the build fails or a run overruns.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.path.dirname(HERE)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, KPT_THREADS="1")
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "kpt-perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    try:
        run = subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
