"""The memo rule of the face complex: every cached computation is a
`faces.memoized` function, which keeps its results in a table of the
complex's `_memo` that belongs to it alone, keyed by its arguments. Only
`faces.py` reads those tables, and no other module reads a private
attribute of the complex except `_passing_classes`, the symbolic passes
of the factorization check."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

from varchenko import cli, euler, faces, tits, varmatrix, witt
from varchenko.apartments import enumerate_apartments
from varchenko.faces import enumerate_faces, memoized
from varchenko.files import bundled_text, parse_arrangement

SOURCES = Path(faces.__file__).parent

MEMOIZED = (
    faces.closure_faces,
    faces._unbounded_edges,
    tits._product_row,
    tits.chamber_products,
    witt.witt_sums,
    euler.euler_closure,
    euler.classify,
    euler._panel_masks,
    varmatrix._chamber_trace,
    varmatrix.beta_details,
    varmatrix._factorization,
)


def fresh(name):
    return enumerate_faces(parse_arrangement(bundled_text(f"{name}.arr")))


def run_every_check(complex_, seed=0, trials=3):
    m = complex_.arrangement.size
    apartments = [None] + [
        apartment
        for mask in range(1 << m)
        for apartment in enumerate_apartments(complex_, [h for h in range(m) if mask >> h & 1])
    ]
    return [
        result.to_dict()
        for run in cli.CHECKS.values()
        for result in run(complex_, targets=lambda: apartments, seed=seed, trials=trials)
    ]


def computations(action):
    """Per memoized function, how often its computation ran in `action`."""
    codes = {fn.__wrapped__.__code__: fn for fn in MEMOIZED}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("name", ["two_pairs", "r3"])
def test_every_check_twice_computes_each_entry_once(name):
    complex_ = fresh(name)
    first = computations(lambda: run_every_check(complex_))
    assert set(first) == set(MEMOIZED)  # the checks reach every table
    assert set(complex_._memo) == set(MEMOIZED)  # and there is no other table
    for fn in MEMOIZED:
        assert first[fn] == len(complex_._memo[fn]), fn.__name__
    assert computations(lambda: run_every_check(complex_)) == Counter()
    # a memo hit returns the stored result, which equals a fresh computation
    assert run_every_check(complex_) == run_every_check(fresh(name))


def test_memoized_computes_once_per_complex_and_args():
    calls = []

    @memoized
    def labelled(complex_, face, label):
        calls.append((complex_, face, label))
        return [face.id, label]

    one, two = fresh("crossing"), fresh("crossing")
    face = one.faces[3]
    first = labelled(one, face, "a")
    assert labelled(one, face, "a") is first
    assert labelled(one, face, "b") == [3, "b"]
    assert len(calls) == 2
    # two complexes of one arrangement share no table
    assert labelled(two, two.faces[3], "a") is not first
    assert len(calls) == 3
    assert one._memo[labelled] == {(face, "a"): first, (face, "b"): [3, "b"]}
    assert list(two._memo[labelled]) == [(two.faces[3], "a")]
    assert all(labelled not in c._memo for c in (fresh("crossing"), fresh("r1")))


def test_a_raising_computation_stores_nothing():
    attempts = []

    @memoized
    def fragile(complex_, face):
        attempts.append(face)
        if len(attempts) == 1:
            raise RuntimeError("first attempt")
        return face.id

    complex_ = fresh("crossing")
    face = complex_.faces[0]
    with pytest.raises(RuntimeError):
        fragile(complex_, face)
    assert complex_._memo[fragile] == {}
    assert fragile(complex_, face) == 0
    assert fragile(complex_, face) == 0
    assert len(attempts) == 2

    vertex = next(f for f in complex_.faces if not f.is_chamber)
    for fn in (euler.classify, euler.euler_closure, euler._panel_masks):
        with pytest.raises(ValueError, match="requires a chamber"):
            fn(complex_, vertex)
        assert (vertex,) not in complex_._memo[fn]


def _private_attributes_of_face_complex():
    tree = ast.parse((SOURCES / "faces.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FaceComplex")
    return {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    }


def test_only_faces_reads_the_memo_tables():
    private = _private_attributes_of_face_complex()
    assert private == {"_memo", "_passing_classes"}
    shared = {"_passing_classes"}
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "faces.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute) or node.attr in shared:
                continue
            on_complex = isinstance(node.value, ast.Name) and node.value.id == "complex_"
            if node.attr in private or (on_complex and node.attr.startswith("_")):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []
