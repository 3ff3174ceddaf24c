#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The benchmark is the
Rust package in this directory (its own workspace, path-depending on the
crates under ``crates/``); it is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build``) and then run with the
given arguments. The last line of standard output is the JSON result;
build output and diagnostics go to standard error. The exit code is the
benchmark's, or non-zero when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print(
            "perfbench: no dpm workspace next to perfbench/ (crates/ is missing); "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr.fileno(),
        check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "dpm-perfbench")
    run = subprocess.run([binary, *sys.argv[1:]], check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
