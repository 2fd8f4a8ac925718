#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

Usage, from the repository root:

    python3 perfbench/spread.py <workload> [--seeds 1-10] [--trace] [--json OUT]

Each run is the command in BENCHMARK.json with `--workload`, `--seed`,
`--seconds` (BENCHMARK.json's run_seconds) and `--trace`. For every
metric the script prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the
distance between the quartiles as a share of the median. `--json` writes
the same summary to OUT.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    units = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "1" if args.trace else "0",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result\n{run.stderr}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "runs": len(vs)}
        print(f"{name:32} median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} spread={spread:.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "metrics": summary}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
