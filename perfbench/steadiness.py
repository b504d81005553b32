#!/usr/bin/env python3
"""Steadiness check for the benchmark's end-to-end metrics.

Runs two sets of ROUNDS interleaved rounds of every workload in
BENCHMARK.json (round r runs each workload once, in turn, with seed r + 1).
For each set it prints every workload's metrics: median, quartiles, and the
quartile spread (Q3 - Q1) / median next to the metric's bound.  It then
prints the shift of each median from the first set to the second, as a share
of the first, next to the same bound.

    python3 perfbench/steadiness.py
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 10
SETS = 2


def run_set(bench, workloads):
    """{workload: {metric: [value per round]}} of one interleaved set."""
    values = {w: {} for w in workloads}
    for r in range(ROUNDS):
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(r + 1),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True, text=True,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            host = json.loads(lines[-2])["host"]
            # The unscaled figures, to show what the host-speed reference
            # removes.
            for raw in ("raw_wall_s", "raw_setup_s"):
                values[w].setdefault(raw, []).append(host[raw])
            if not result["correct"]:
                print(f"round {r} {w}: incorrect", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"round {r} {w}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                file=sys.stderr, flush=True)
    return values


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = [run_set(bench, workloads) for _ in range(SETS)]

    for i, values in enumerate(sets):
        print(f"\nSet {i + 1}: {ROUNDS} interleaved rounds, seeds 1..{ROUNDS}\n")
        print("| workload | metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for w in workloads:
            for name, xs in values[w].items():
                q1, med, q3 = statistics.quantiles(xs, n=4)
                print(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                      f"{(q3 - q1) / med:.3f} | {bounds.get(name, '-')} |")

    print("\nShift of each median from set 1 to set 2\n")
    print("| workload | metric | median 1 | median 2 | shift | bound |")
    print("|---|---|---|---|---|---|")
    for w in workloads:
        for name in sets[0][w]:
            m1, m2 = (statistics.median(s[w][name]) for s in sets)
            print(f"| {w} | {name} | {m1:.4g} | {m2:.4g} | "
                  f"{(m2 - m1) / m1:+.3f} | {bounds.get(name, '-')} |")


if __name__ == "__main__":
    main()
