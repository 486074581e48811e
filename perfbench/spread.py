#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload table1 --seeds 1-10 [--trace 0] [--seconds S] [-- extra flags]

Runs the command of BENCHMARK.json once per seed, from the repository
root, and prints for every metric its median, first and third quartile
(statistics.quantiles, n=4) and the quartile distance as a share of the
median, next to the metric's bound and a third of it. A run that fails
or reports correct=false is listed and left out of the statistics; the
script then exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("extra", nargs="*")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    failed = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ] + args.extra
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or not result or not result["correct"]:
            errors = [l for l in proc.stderr.splitlines() if "check failed" in l or "error" in l]
            print(f"seed {seed}: FAILED (exit {proc.returncode}): " + " | ".join(errors[:3]), flush=True)
            failed.append(seed)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs, trace {args.trace}, failed: {failed or 'none'}")
    print(f"{'metric':34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:8.4f}" if bound else f"{'-':>8}"
        flag = "  OVER" if bound and name != "setup_s" and spread >= bound / 3 else ""
        print(f"{name:34} {units[name]:>6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {third}{flag}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
