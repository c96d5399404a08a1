#!/usr/bin/env python3
"""Measure the end-to-end benchmark's baseline and its run-to-run spread.

Runs every workload untraced once per seed, plus one traced run per
workload, with the command and run length in BENCHMARK.json, and writes
the medians, quartiles and spreads (interquartile range over median) of
every metric, the result digests per seed, and the traced per-layer values.

Run from the repository root:

    python3 e2ebench/baseline.py --seeds 1-10 --out e2ebench/baseline.json

A spread at or above a third of the metric's bound is flagged: such a
metric cannot tell a regression of that size from noise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stdout[-4000:]}\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    digest = next(m.group(1) for m in map(re.compile(r"digest ([0-9a-f]+)").search, lines) if m)
    return result, digest


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--out", default=None, help="where to write the baseline JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [w for w in names if w in args.workloads.split(",")]

    baseline = {"command": bench["command"], "run_seconds": bench["run_seconds"],
                "seeds": seeds, "nproc": os.cpu_count(), "workloads": {}}
    flagged = []
    for workload in names:
        values, digests = {}, {}
        for seed in seeds:
            result, digest = run(bench["command"], workload, seed, bench["run_seconds"], 0)
            digests[str(seed)] = digest
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced, _ = run(bench["command"], workload, seeds[0], bench["run_seconds"], 1)
        entry = {
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "digests": digests,
            "per_layer_seed_%d" % seeds[0]:
                {name: m["value"] for name, m in traced["metrics"].items()},
        }
        baseline["workloads"][workload] = entry
        print(workload)
        for name, s in entry["end_to_end"].items():
            mark = ""
            if name != "setup_s" and s["spread"] >= bounds[name] / 3:
                mark = "  <-- spread >= bound/3"
                flagged.append((workload, name))
            print(f"  {name:22s} median {s['median']:14.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}{mark}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
    if flagged:
        print("flagged:", ", ".join(f"{w}/{m}" for w, m in flagged))


if __name__ == "__main__":
    main()
