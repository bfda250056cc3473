#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs each workload once per seed with the command in BENCHMARK.json, then
prints, for every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the minimum and maximum,
and the interquartile range as a share of the median. A spread beyond the
metric's bound is flagged, and so is one beyond a third of it. The first
seed runs twice, and every simulated-clock metric must repeat exactly.

Run from the repository root:

    python3 perfbench/steady.py                       # all workloads, 10 seeds
    python3 perfbench/steady.py --workloads serve --seeds 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SIM_CLOCK = {"sim_us"}


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    flagged = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        first = None
        for seed in seeds:
            result, wall = run_once(bench["command"], workload, seed, seconds)
            walls.append(wall)
            first = first or result
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        repeat, _ = run_once(bench["command"], workload, seeds[0], seconds)
        print(f"\n{workload}: {len(seeds)} seeds ({seeds[0]}..{seeds[-1]}), "
              f"{seconds} s each, wall {min(walls):.1f}-{max(walls):.1f} s per run")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'iqr/med':>8} {'bound':>6}")
        for name, bound in bounds.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = "  BEYOND BOUND"
                flagged += 1
            elif spread > bound / 3:
                flag = "  beyond a third of the bound"
            print(f"  {name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{min(v):>12.6g} {max(v):>12.6g} {spread:>8.4f} {bound:>6}{flag}")
        for name in SIM_CLOCK:
            a = first["metrics"][name]["value"]
            b = repeat["metrics"][name]["value"]
            same = "repeats exactly" if a == b else f"DIFFERS ({a} vs {b})"
            flagged += a != b
            print(f"  {name} at seed {seeds[0]}, run twice: {same}")
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
