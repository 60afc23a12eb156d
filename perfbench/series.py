"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/series.py --workload enumerate --seeds 1-10 [--trace 1] [--out FILE]

Runs run.py once per seed, one after another, and prints for every metric
the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median. With --trace 1 the per-item rows of every run's trace
file are kept as well. --out writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def summarize(values):
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs, items = [], []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        if args.trace:
            trace = HERE / ".work" / f"trace-{args.workload}-seed{seed}.json"
            items += [{"seed": seed, **row} for row in json.loads(trace.read_text())["items"]]

    names = sorted({name for run in runs for name in run["metrics"]})
    summary = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        unit = next(run["metrics"][name]["unit"] for run in runs if name in run["metrics"])
        summary[name] = {"unit": unit, **summarize(values)}
        s = summary[name]
        print(f"  {name:<30} median {s['median']:.6g} {unit}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "runs": len(runs), "failed": sum(run["failed"] for run in runs),
             "attempted": sum(run["attempted"] for run in runs),
             "metrics": summary, "items": items}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
