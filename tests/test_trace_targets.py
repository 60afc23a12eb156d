"""The benchmark's span tracer still finds every function it traces.

`perfbench/spans.py` wraps public functions of `varchenko` by module and
name, and a metric built on a name that no longer exists is reported as
absent. This test loads that tracer by file path, runs the CLI commands of
the three benchmark workloads under it, and asserts that every target was
found and every per-item metric derived. It only reads `perfbench/`.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

import varchenko  # noqa: F401  loads every module the tracer wraps
from varchenko import cli
from varchenko.files import bundled_text

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# (workload, CLI arguments after the file)
COMMANDS = (
    ("enumerate", ["faces", "--json"]),
    (
        "identities",
        ["verify", "--checks", "tits,witt,lemma_ch,lemma_chm,v_path,mad_recurrence", "--json"],
    ),
    ("apartments", ["verify", "--checks", "beta,factorization", "--all-apartments", "--json"]),
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", [c for _, c in COMMANDS], ids=[w for w, _ in COMMANDS])
def test_traced_cli_run_derives_every_metric(command, tmp_path):
    spans = _load_spans()
    path = tmp_path / "r3.arr"
    path.write_text(bundled_text("r3.arr"))
    tracer = spans.Tracer()
    # the tracer also rebinds json.dumps, so it must come off whatever happens
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command[0], str(path), *command[1:]])
        recorded = tracer.take()
    finally:
        tracer.uninstall()
    assert code in (0, 1)  # 1: a check reported FAIL; 2 would be an error
    assert tracer.missing == set()
    metrics = spans.summarize(recorded, tracer.missing)
    assert [name for name, value in metrics.items() if value is None] == []
