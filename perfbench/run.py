"""Benchmark entry point for the varchenko CLI.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The program is imported from `src/`; it
needs no build. Each workload runs in one child process (worker.py) under
an address-space limit, with a per-item timeout, so a blow-up counts as a
failed item instead of exhausting the machine. Set-up (importing
`varchenko`, generating and writing the seeded corpus) is also timed in
separate short-lived processes, and its median is reported.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The lines before it
are a human-readable summary, including failed_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from hostspeed import REFERENCE_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("enumerate", "identities", "apartments")
SETUP_SAMPLES = 9
ADDRESS_SPACE_LIMIT = 2 * 1024**3
HARD_LIMIT_S = 150.0  # no item starts after this; the run ends well before 180 s

END_TO_END_UNITS = {"wall_s": "s", "item_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: m["unit"] for m in declared}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_worker(args, deadline, extra):
    """Run worker.py to completion and return its JSON result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(ROOT), "--work", str(WORK), "--deadline", repr(deadline),
        *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        preexec_fn=_limit_memory, timeout=max(deadline - time.time(), 0) + 20,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "varchenko" / "__init__.py").is_file():
        print(f"error: no varchenko sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.time()
    deadline = started + HARD_LIMIT_S
    WORK.mkdir(exist_ok=True)
    try:
        setups = [run_worker(args, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        result = run_worker(args, deadline, [])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed}: {result['items']} items, "
          f"{result['passes']} passes, {attempted} item runs")
    for failure in result["failures"]:
        print(f"  FAILED {failure['item']} (pass {failure['pass']}): {failure['reason']}")
    print(f"  failed_frac  {failed / attempted:.4f} ({failed} of {attempted})")
    print(f"  setup_s      {median(setups):.4f} s (median of {len(setups)})")
    print(f"  wall_s       {result['wall_s']:.4f} s (sum of per-item medians; "
          f"{result['raw_wall_s']:.4f} s before scaling to the reference speed)")
    print(f"  item_s.p50   {result['item_s.p50']:.4f} s over {result['items']} items")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    if result["probe_s"] is not None:
        print(f"  host probe   {result['probe_s'] * 1000:.3f} ms (median; "
              f"reference {REFERENCE_PROBE_S * 1000:.3f} ms)")
    for row in result["per_item"]:
        wall = "-" if row["wall_s"] is None else f"{row['wall_s']:.3f} s ({row['raw_wall_s']:.3f} raw)"
        print(f"    {row['item']:<18} n={row['n']} m={row['m']}  {wall} "
              f"x{row['samples']}  {' '.join(row['argv'])}")

    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units.get(name, "")}
                   for name, value in result["per_layer"].items()}
        for name in result["absent"]:
            print(f"  absent: {name} (its traced function no longer exists)")
        print(f"  spans written to {os.path.relpath(result['trace_file'], ROOT)}")
    else:
        values = dict(result, setup_s=median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
