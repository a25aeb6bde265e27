#!/usr/bin/env python3
"""Runs perfbench on a parent and a change checkout and keeps the ledger.

    python3 ci/bench_ledger.py --parent DIR --change DIR \\
        --parent-commit SHA --change-commit TEXT \\
        --workload NAME --seeds 1-10 [--seconds 15] --out BENCH_<n>.json

For each seed it runs one pair, `python3 perfbench/run.py --workload NAME
--seed S --seconds N --trace 0` in each checkout, the parent first on odd
seeds and the change first on even ones, and appends both runs to the
ledger (created if absent). Every run is kept; each side's summary per
metric is {n, min, median, rel_spread}, rel_spread being the distance
between the quartiles (linear interpolation) over the median. The file is
a ktg.bench.v1 document (tools/schema_validate checks it).
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 1800


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def summarize(runs):
    values = {}
    for run in runs:
        for name, value in run["metrics"].items():
            values.setdefault(name, []).append(value)
    summary = {}
    for name, v in sorted(values.items()):
        median = quantile(v, 0.5)
        spread = (quantile(v, 0.75) - quantile(v, 0.25)) / median if median else 0.0
        summary[name] = {"n": len(v), "min": min(v), "median": median,
                         "rel_spread": spread}
    return summary


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed in {checkout}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = ""
    for line in proc.stderr.splitlines():
        if line.startswith("source digest: "):
            digest = line.split(": ", 1)[1]
    return {"seed": seed, "source_digest": digest,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            ledger = json.load(f)
    else:
        ledger = {"schema": "ktg.bench.v1",
                  "command": "python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {args.seconds} --trace 0",
                  "nproc": os.cpu_count(),
                  "parent": {"commit": args.parent_commit},
                  "change": {"commit": args.change_commit},
                  "workloads": {}}
    sides = ledger["workloads"].setdefault(
        args.workload, {"parent": {"runs": []}, "change": {"runs": []}})
    for seed in parse_seeds(args.seeds):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            run = run_once(checkout, args.workload, seed, args.seconds)
            run["first"] = side == order[0]
            sides[side]["runs"].append(run)
            print(f"{args.workload} seed {seed} {side}: " +
                  json.dumps(run["metrics"]), flush=True)
        for side in ("parent", "change"):
            sides[side]["summary"] = summarize(sides[side]["runs"])
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
