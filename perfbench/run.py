#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) linking the repository's crates by path; the
build goes to $CARGO_TARGET_DIR, or perfbench/target when unset.
Cargo's output goes to stderr, so the last line of stdout is the
benchmark's JSON result. `--workload all` runs every workload in turn.
With `--trace 1` the recorded spans are written next to the binary,
one JSON object per line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["squares-cold", "grid-batch", "socket-warm", "cluster-grid"]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    result = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit("perfbench: build failed (run from the repository root)")
    return os.path.abspath(target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = build()
    binary = os.path.join(target, "release", "perfbench")
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [
            binary,
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace:
            command += ["--trace-out", os.path.join(target, f"perfbench-trace-{workload}.jsonl")]
        sys.stdout.flush()
        code = subprocess.run(command).returncode
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
