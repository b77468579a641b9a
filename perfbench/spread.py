#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload decide[,serve,...] --runs 10 [--first-seed 1] [--trace 0]

With several workloads the runs are interleaved, seed by seed, so that
every workload's runs spread over the whole session and meet the host in
the same states.  For every workload and metric: the median over the runs
and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound in BENCHMARK.json.  A spread above a third of the bound is flagged.
Run from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload.split(",")
    values = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: exit {out.returncode}, {result['failed']} failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    for w in workloads:
        print(w)
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "  <-- above a third of the bound" if bound and spread > bound / 3 else ""
            print(f"  {name:30s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
