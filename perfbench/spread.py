#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--trace 0]
                                [--workload NAME ...] [--out FILE]

Reads the command, workloads, run length and bounds from BENCHMARK.json,
runs every workload once per seed, and prints for each metric the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the first and third quartile as a share of the median.
A spread above a third of the metric's bound is marked `WIDE`, above the
bound `OVER`. `--out` writes all of it, with the machine facts each run
printed, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    facts = next((l for l in lines if " facts " in l), "")
    return result, facts


def machine():
    """CPU model and count of this machine, from /proc/cpuinfo."""
    try:
        with open("/proc/cpuinfo") as f:
            models = [l.split(":", 1)[1].strip() for l in f if l.startswith("model name")]
    except OSError:
        models = []
    return {"cpu": models[0] if models else "unknown", "cpus": len(models)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    report = {"machine": machine(), "run_seconds": bench["run_seconds"],
              "trace": args.trace, "workloads": {}}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        facts = []
        for seed in seeds:
            result, fact = run_once(bench["command"], workload, seed,
                                    bench["run_seconds"], args.trace)
            facts.append(fact)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: correctness check failed")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in metrics}
            if got != want:
                sys.exit(f"{workload} seed {seed}: metrics {got} differ from BENCHMARK.json {want}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload} ({len(seeds)} seeds)")
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "OVER" if spread > bound else ("WIDE" if spread > bound / 3 else "ok")
            print(f"  {name:28s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:6.3f} {mark}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
        report["workloads"][workload] = {"seeds": list(seeds), "facts": facts,
                                         "metrics": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
