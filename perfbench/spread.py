#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed for each workload and
reports, per metric, the median over the runs and the spread: the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of the median, beside the metric's bound.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads boot,fleet] [--seconds N] [--out FILE]

`--out` also writes every run's metrics as JSON lines. Exits non-zero if a
run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    out = open(args.out, "a") if args.out else None
    failed = False
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                failed = True
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if out:
                out.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
                out.flush()
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = m["bound"]
            mark = "ok" if spread < bound / 3 else "within bound" if spread <= bound else "OVER"
            print(f"{w:12} {m['name']:32} median {med:<14.6g} spread {spread:7.4f}"
                  f" bound {bound:<5} {mark}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
