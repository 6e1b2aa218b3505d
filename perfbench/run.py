#!/usr/bin/env python3
"""Build the benchmark and run one workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a cargo package of its
own (perfbench/Cargo.toml) that depends on the repository's crates by
path; cargo puts the build in $CARGO_TARGET_DIR, or perfbench/target when
that is unset. The workload binary prints a run line (nproc, compute
width, seed, git revision, output digest) and, last, the result as one
JSON object; both are passed through unchanged.

Traced runs (--trace 1) also write every span to perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig8-sweep", "churn-repair", "query-mix", "trace-analysis")
RUN_TIMEOUT_S = 170


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def build():
    """Builds the release binary and returns its path (None on failure)."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest]
    # Cargo's own output goes to stderr, keeping stdout for the result.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", git_revision(),
    ]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
