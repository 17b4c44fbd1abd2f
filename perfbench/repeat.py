#!/usr/bin/env python3
"""Repeat one perfbench workload and print each metric's spread.

Runs the command from BENCHMARK.json once per seed, then prints for
every metric its median, first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile distance as
a share of the median, and that share against the metric's bound. It
also checks that the share of failed operations is the same in every
run.

    python3 perfbench/repeat.py --workload read-zipf --runs 10
    python3 perfbench/repeat.py --workload write-durable --seeds 11,12,13 --trace 1

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", help="comma-separated seeds (default 1..runs)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(range(1, args.runs + 1))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    shares = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        elapsed = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output:\n" + "\n".join(lines[-25:]))
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        shown = " ".join(f"{n}={values[n][-1]:.4g}" for n in list(values)[:8])
        print(f"seed {seed} ({elapsed:.0f}s): attempted {result['attempted']}, failed {result['failed']}, {shown}",
              flush=True)
    print(f"\n{args.workload}, {len(seeds)} runs of {seconds}s, failed share {sorted(set(shares))}")
    print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'bound':>6s}")
    for m in metrics:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = f"{bound:6.3f} " + ("ok" if spread <= bound / 3 else "WIDE" if spread > bound else "over a third")
        print(f"{m['name']:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {verdict}")
    if len(set(shares)) > 1:
        sys.exit("failed share differs between runs")


if __name__ == "__main__":
    main()
