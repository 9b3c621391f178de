#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and quartile spread (IQR as a share of the median), the statistic
BENCHMARK.json's bounds are judged against.

    python3 perfbench/spread.py --workloads llc_replay,rl_train --seeds 1-5

Run from the repository root. Uses the command and run length recorded in
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in names:
        values = {}
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip().splitlines()
            result = json.loads(out[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {s}: incorrect result: {out[-1]}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of the bound"
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"{w:<16} {name:<14} median {med:<12.6g} spread {spread:7.4f} bound {bound}{flag}")
    print(f"worst spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
