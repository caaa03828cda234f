#!/usr/bin/env python3
"""Run-to-run spread of the host-time benchmark.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload netperf --seeds 1-10
    python3 perfbench/spread.py --workload fuzz --seeds 1-5 --trace 1 --out fuzz.json

Runs perfbench/run.py once per seed and prints, for each metric, the
median of its values, their first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median.  End-to-end
metrics also show their bound from BENCHMARK.json.  --out writes the
same figures, and every run's raw values, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description="Run-to-run spread of perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    runs = []
    for seed in args.seeds:
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: the run's outputs failed their checks")
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
              file=sys.stderr)

    summary = {}
    print(f"{args.workload}, {len(runs)} seeds, {seconds} s each")
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in declared:
        values = [r["metrics"][m["name"]] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                              "unit": m["unit"]}
        bound = f"{m['bound']:.2f}" if "bound" in m else "-"
        print(f"{m['name']:<22} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
