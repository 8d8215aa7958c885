#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and record the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Run from the root of a checkout. For every workload in BENCHMARK.json it
makes one untraced run per seed (one after another, never in parallel) and
one traced run on the first seed, then writes the Python version, nproc,
run_seconds, each metric's values, median and quartile spread, and the
traced per-layer metrics. A spread is (Q3 - Q1) / median with the quartiles
of statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone


def run(workload, seed, seconds, trace):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("run failed: %s seed %d\n%s%s" % (workload, seed, p.stdout[-3000:], p.stderr[-3000:]))
    return json.loads(p.stdout.splitlines()[-1])


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--out", help="JSON file to write; default: print only")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(run(name, seed, seconds, 0))
            print("%s seed %d: %s" % (name, seed, json.dumps(runs[-1])), flush=True)
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            med = statistics.median(values)
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": med,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": bounds.get(metric), "values": values}
            print("  %-12s median %12.6g spread %.4f (bound %s)"
                  % (metric, med, entry["end_to_end"][metric]["spread"], bounds.get(metric)))
        traced = run(name, args.seeds[0], seconds, 1)
        entry["per_layer_seed%d" % args.seeds[0]] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
