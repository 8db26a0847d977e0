#!/usr/bin/env python3
"""Builds the Q100 benchmark harness from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dse --seed 42 --seconds 10 --trace 0

Arguments go to the harness unchanged (see perfbench/README.md). The
build uses only path dependencies, offline, into $CARGO_TARGET_DIR
(default: .bench_build in the current directory); its output goes to
stderr. The harness prints its result as the last line of stdout. The
exit code is the harness's, or non-zero if the build fails or the run
overruns its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    harness = os.path.join(target, "release", "q100-perfbench")
    try:
        run = subprocess.run([harness] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
