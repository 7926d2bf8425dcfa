#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 benchmark/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds `benchmark/Cargo.toml` in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build` at the checkout root), then runs the binary with
the given arguments from the checkout root. Its output, whose last line is
the JSON result, passes through unchanged. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(ROOT, "benchmark", "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return built.returncode
    binary = os.path.join(ROOT, target, "release", "anvil-repo-benchmark")
    try:
        return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
