#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

Runs the benchmark command from BENCHMARK.json several times per workload,
each with a different seed, and prints for every end-to-end metric the
median, the quartile spread (Q3 - Q1 over the median, quartiles as
statistics.quantiles(values, n=4) gives them) and the metric's bound. A
spread at or above a third of its bound is flagged; setup_s is reported but
never flagged. Run from the repository root:

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--workload load-calm ...]

Exits 1 when a flagged spread or a failed run was seen.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            got = run_once(bench["command"], workload, args.first_seed + i,
                           bench["run_seconds"])
            if got is None:
                print(f"{workload}: run with seed {args.first_seed + i} failed")
                bad = True
                continue
            for name in values:
                values[name].append(got[name])
        print(f"== {workload} ({args.runs} runs)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = spread >= bound / 3 and name != "setup_s"
            bad |= flag
            print(f"  {name:<14} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound:<5} {'TOO WIDE' if flag else 'ok'}"
                  f"  [{' '.join(f'{v:.6g}' for v in vals)}]")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
