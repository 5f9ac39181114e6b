#!/usr/bin/env python3
"""Benchmark self-checks.

Runs every workload, through the command in BENCHMARK.json, twice under
ANAHEIM_THREADS=1 and twice under ANAHEIM_THREADS=2 (short runs, one
seed), untraced and traced. It requires every virtual-time metric,
`success_ratio` and `precision_bits` of the untraced runs, and every
per-layer count, ratio, byte, energy and virtual-time metric of the
traced runs, to read exactly the same in all four runs. Wall-time metrics
are printed for reference only.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [--seed N] [--seconds N] [--workloads a,b]

Exits non-zero if a run fails or a deterministic metric differs.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["boot", "he-ops", "paper-model", "fleet"]
# Per-layer units of quantities that depend only on the seed.
DETERMINISTIC_UNITS = {"vms", "vus", "count", "GB", "J", "ratio"}
# End-to-end metrics that depend only on the seed.
DETERMINISTIC = {
    "precision_bits",
    "success_ratio",
    "virtual_ms_geomean",
    "table5_err_pct",
    "virtual_rps",
    "virtual_latency_us_p50",
    "virtual_latency_us_p99",
    "virtual_capacity_rps",
}


def run(command, workload, seed, seconds, threads, trace):
    """The workload line's end-to-end metrics (untraced) or the result
    line's per-layer metrics restricted to deterministic units (traced)."""
    env = dict(os.environ, ANAHEIM_THREADS=str(threads))
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
        env=env, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} (threads {threads}) failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    workload_line = json.loads(lines[-2])
    if workload_line["ANAHEIM_THREADS"] != str(threads):
        sys.exit(f"{workload}: thread setting not echoed: {workload_line}")
    if trace:
        layers = json.loads(lines[-1])["metrics"]
        return {k: v["value"] for k, v in layers.items() if v["unit"] in DETERMINISTIC_UNITS}
    return {k: v["value"] for k, v in workload_line["end_to_end"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    command = json.load(open("BENCHMARK.json"))["command"]
    bad = 0
    for w in args.workloads.split(","):
        runs = [run(command, w, args.seed, args.seconds, t, 0) for t in (1, 2, 1, 2)]
        traced = [run(command, w, args.seed, args.seconds, t, 1) for t in (1, 2, 1, 2)]
        for name in sorted(traced[0]):
            values = [r[name] for r in traced]
            same = all(v == values[0] for v in values)
            bad += not same
            print(f"{w:12} {name:34} {'same' if same else 'DIFFERS'} {values}")
        for name in sorted(runs[0]):
            values = [r[name] for r in runs]
            if name in DETERMINISTIC:
                same = all(v == values[0] for v in values)
                bad += not same
                print(f"{w:12} {name:34} {'same' if same else 'DIFFERS'} {values}")
            else:
                print(f"{w:12} {name:34} wall   {values}")
    if bad:
        sys.exit(f"{bad} deterministic metric(s) differ")
    print("self-check passed: every virtual-time metric, count and precision_bits repeats")


if __name__ == "__main__":
    main()
