#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `twl-perfbench` package (its
own Cargo workspace under `perfbench/`) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
Build output goes to standard error; the benchmark's last line on
standard output is its JSON result. The exit code is the benchmark's:
0 only when every correctness check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
CRATES = ("rng", "pcm", "wl-core", "attacks", "workloads", "faults", "lifetime",
          "telemetry", "service", "fleet", "blockdev")


def main():
    missing = [c for c in CRATES
               if not os.path.isfile(os.path.join(ROOT, "crates", c, "Cargo.toml"))]
    if missing:
        sys.stderr.write("perfbench: not run from a repository checkout; missing crates: %s\n"
                         % ", ".join(missing))
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env, stdout=sys.stderr, cwd=ROOT)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    binary = os.path.join(target, "release", "twl-perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
