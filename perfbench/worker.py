"""Benchmark child process: set up, run every item through the CLI, check.

Started by run.py with an address-space limit. Runs one workload in this
single process and thread, calling `varchenko.cli.main(argv)` with stdout
captured, and prints one JSON line of raw results.

Passes over the item list repeat until the next item, judged by its
previous run, would end after --seconds; the first pass (and, with tracing,
the first traced pass) always runs whole. With --trace 1, untraced and
traced passes alternate.

Item times are reported at a reference host speed; see hostspeed.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from checks import check_output, expected_for
from corpus import write_corpus
from hostspeed import Sampler, at_reference_speed, probe_s

ITEM_TIMEOUT_S = 60.0


class ItemTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that the CLI's
    `except ValueError` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def setup(args, root: Path, work: Path):
    """Import the program and write the corpus; returns (cli, items, dir, s)."""
    started = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import varchenko.cli

    package = Path(varchenko.cli.__file__).resolve().parent
    if package != (root / "src" / "varchenko").resolve():
        raise SystemExit(f"imported varchenko from {package}, not from the checkout")
    directory = Path(tempfile.mkdtemp(prefix=f"corpus-{args.workload}-", dir=work))
    items = write_corpus(args.workload, args.seed, directory, package / "data")
    return varchenko.cli, items, directory, time.perf_counter() - started


def run_item(cli, item, timeout, sampler):
    """(exit code or None, captured stdout, seconds, error or None).

    The seconds exclude the time the sampler's probes took during the item.

    `cli.main` is looked up on each call so that a traced pass sees the
    wrapper the tracer installed.
    """
    out = io.StringIO()
    error = None
    code = None
    signal.setitimer(signal.ITIMER_REAL, timeout)
    sampler.start()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(item.argv))
    except ItemTimeout:
        error = f"timed out after {timeout:.0f} s"
    except MemoryError:
        error = "out of memory under the address-space limit"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash in the program is a failed item
        error = f"raised {exc!r}"
    finally:
        probing = sampler.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - started - probing
    return code, out.getvalue(), elapsed, error


def measure(args, cli, items, deadline):
    expected = {item.name: expected_for(item, Path(args.work)) for item in items}
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    plain = {item.name: [] for item in items}  # at reference speed
    plain_raw = {item.name: [] for item in items}
    traced = {item.name: [] for item in items}
    raws = {item.name: [] for item in items}
    spans_out = []
    failures = []
    attempted = 0
    last_step = {}  # item name -> seconds its previous run and check took
    passes = 0
    out_of_time = False
    signal.signal(signal.SIGALRM, _on_alarm)
    begin = time.perf_counter()
    sampler = Sampler()
    # An untimed run of the first item fills the sampler's window of probes.
    _, _, seconds, _ = run_item(cli, items[0], ITEM_TIMEOUT_S, sampler)
    sampler.scale(seconds)
    while not out_of_time:
        tracing = bool(args.trace) and passes % 2 == 1
        required = passes == 0 or (args.trace and passes == 1)
        if tracing:
            tracer.install()
        try:
            for item in items:
                remaining = deadline - time.time()
                elapsed = time.perf_counter() - begin
                if remaining <= 0 or (
                    not required and elapsed + last_step[item.name] > args.seconds
                ):
                    out_of_time = True
                    break
                step_started = time.perf_counter()
                gc.collect()
                code, text, seconds, error = run_item(
                    cli, item, min(ITEM_TIMEOUT_S, remaining), sampler)
                spans = tracer.take() if tracing else None
                scaled = sampler.scale(seconds)
                attempted += 1
                reason = error
                if reason is None:
                    try:
                        reason = check_output(args.workload, item, expected[item.name], code, text)
                    except (KeyError, TypeError, ValueError) as exc:
                        reason = f"unexpected output shape: {exc!r}"
                last_step[item.name] = time.perf_counter() - step_started
                if reason is not None:
                    failures.append({"item": item.name, "pass": passes, "reason": reason})
                    continue
                if tracing:
                    from spans import summarize

                    traced[item.name].append(scaled)
                    raws[item.name].append(summarize(spans, tracer.missing))
                    spans_out.append({"pass": passes, "item": item.name, "spans": spans})
                else:
                    plain[item.name].append(scaled)
                    plain_raw[item.name].append(seconds)
        finally:
            if tracing:
                tracer.uninstall()
        passes += 1

    # An item cut off by the deadline before it ran counts as attempted and failed.
    failed_items = {failure["item"] for failure in failures}
    for item in items:
        unsampled = not plain[item.name] or (args.trace and not raws[item.name])
        if unsampled and item.name not in failed_items:
            attempted += 1
            failures.append({"item": item.name, "pass": passes, "reason": "not run before the deadline"})
    per_item = {name: median(v) for name, v in plain.items() if v}
    result = {
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "failures": failures[:20],
        "items": len(items),
        "passes": passes,
        "wall_s": sum(per_item.values()),
        "raw_wall_s": sum(median(v) for v in plain_raw.values() if v),
        "probe_s": median(sampler.all) if sampler.all else None,
        "item_s.p50": median(per_item.values()) if per_item else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_item": [
            {"item": item.name, "n": item.n, "m": len(item.hyperplanes),
             "argv": item.argv[:1] + item.argv[2:],
             "samples": len(plain[item.name]),
             "wall_s": per_item.get(item.name),
             "raw_wall_s": median(plain_raw[item.name]) if plain_raw[item.name] else None}
            for item in items
        ],
    }
    if args.trace:
        from spans import combine

        done = {name: r for name, r in raws.items() if r}
        layers = combine(done) if done else {}
        both = [name for name in done if plain[name]]
        layers["trace.overhead_s"] = sum(
            median(traced[name]) - per_item[name] for name in both)
        result["per_layer"] = {k: v for k, v in layers.items() if v is not None}
        result["absent"] = sorted(k for k, v in layers.items() if v is None)
        for row in result["per_item"]:
            name = row["item"]
            if raws[name]:
                row["traced_s"] = median(traced[name])
                row.update(combine({name: raws[name]}))
        trace_file = Path(args.work) / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "items": result["per_item"], "spans": spans_out}))
        result["trace_file"] = str(trace_file)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--deadline", type=float, required=True,
                        help="epoch time after which no item starts")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, items, directory, setup_s = setup(args, Path(args.root), Path(args.work))
    setup_s = at_reference_speed(setup_s, [probe_s() for _ in range(9)])
    try:
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(args, cli, items, args.deadline)
            result["setup_s"] = setup_s
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
