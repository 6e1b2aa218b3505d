#!/usr/bin/env python3
"""Traced-run report: self-time share by layer for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload once with --trace 1 (through run.py, so it builds
first) and prints a markdown table: the share of traced op wall time
spent in each layer's spans, the coverage (share of op wall time inside
any named span) and the tracer's own overhead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig8-sweep", "churn-repair", "query-mix", "trace-analysis")
LAYERS = ("overlay.sim", "overlay.repair", "dht", "faults", "search", "tracegen", "analysis",
          "harness")


def traced(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: {result['failed']} failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args()
    runs = {w: traced(w, args.seed, args.seconds) for w in WORKLOADS}
    pct = lambda v: f"{100 * v:.1f}%"
    print("| layer | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---:|" * len(WORKLOADS))
    for layer in LAYERS:
        print(f"| {layer} | " + " | ".join(pct(runs[w][layer + ".share"]) for w in WORKLOADS)
              + " |")
    for metric in ("obs.coverage", "obs.trace_overhead"):
        print(f"| {metric} | " + " | ".join(pct(runs[w][metric]) for w in WORKLOADS) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
