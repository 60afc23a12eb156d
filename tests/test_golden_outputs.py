"""Golden outputs: the sha256 of the stdout and the exit code of fixed CLI
runs on the bundled files and a few inline degenerate arrangements, run in
process through `cli.main`. A change that must not alter any output shows
here that it does not.

After an intended output change, rewrite the digests with

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from varchenko.cli import main
from varchenko.files import bundled_text
from corpus import DEGENERATE

GOLDEN = Path(__file__).with_name("golden_outputs.json")
ARRANGEMENTS = ("r1", "crossing", "generic3", "parallel2", "two_pairs", "r3")
PAPER_PRODUCT = "(1 - h2^+ h2^-)^2 (1 - h3^+ h3^-)^2 (1 - h4^+ h4^-)^3"
# The degenerate arrangements of the corpus, three points on the line, and
# the cyclic lines t x + y = t^2, t = 1..m: their apartment sweeps repeat
# chamber sets and take the modular route on apartments above 12 chambers.
CYCLIC = {
    f"cyclic{m}.arr": "dim 2\n" + "".join(f"{t} 1 {t * t}\n" for t in range(1, m + 1))
    for m in (5, 6)
}
INLINE = {
    **{f"{name}.arr": text for name, text in DEGENERATE.items()},
    "points1.arr": "dim 1\n1 0\n1 1\n2 1\n",
    **CYCLIC,
}


def commands():
    """Each command line, its input file name second, as in the golden file."""
    for name in ARRANGEMENTS:
        path = f"{name}.arr"
        yield f"faces {path} --json"
        yield f"verify {path} --all --json"
        yield f"verify {path} --checks beta,factorization --all-apartments --json"
        yield f"varchenko {path} --json"
        yield f"varchenko {path} --mode modular --seed 4 --json"
    yield "varchenko r3.arr --mode symbolic --json"
    yield "detfile two_pairs_apartment.vmx --json"
    yield shlex.join(
        ["detfile", "two_pairs_apartment.vmx", "--json", "--expected", PAPER_PRODUCT]
    )
    # text renderings, and products that fail (one with a weight that is
    # not square-free)
    yield "varchenko r3.arr --mode symbolic"
    yield "varchenko two_pairs.arr"
    yield "verify r3.arr --all"
    yield shlex.join(
        ["detfile", "two_pairs_apartment.vmx", "--expected", PAPER_PRODUCT]
    )
    yield shlex.join(
        ["detfile", "two_pairs_apartment.vmx", "--expected", "(1 - h2^+ h2^-)^6"]
    )
    yield shlex.join(
        ["detfile", "two_pairs_apartment.vmx", "--json", "--expected",
         "(1 - h2^+^3)^2 (1 - h3^+ h3^-)^2"]
    )
    for path in INLINE:
        yield f"faces {path} --json"
        yield f"verify {path} --all --json"
    for path in CYCLIC:
        sweep = f"verify {path} --checks beta,factorization --all-apartments"
        yield f"{sweep} --json --seed 4"
        yield f"{sweep} --seed 4"


def run(command, directory: Path):
    """{"sha256": digest of stdout, "exit": exit code} of one command."""
    argv = shlex.split(command)
    path = directory / argv[1]
    if not path.exists():
        path.write_text(INLINE.get(argv[1]) or bundled_text(argv[1]))
    argv[1] = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_command(golden):
    assert sorted(golden) == sorted(commands())


@pytest.mark.parametrize("command", list(commands()))
def test_output_matches_golden_digest(golden, tmp_path, monkeypatch, command):
    monkeypatch.delenv("VARCHENKO_SEED", raising=False)
    assert run(command, tmp_path) == golden[command]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    os.environ.pop("VARCHENKO_SEED", None)
    with tempfile.TemporaryDirectory() as scratch:
        digests = {c: run(c, Path(scratch)) for c in commands()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
