"""The face sets of `enumerate_faces` against the covector axioms of
conditional oriented matroids, face symmetry and strong elimination: an
oracle on sign vectors alone, with no LP and no 3^m brute force, so it
reaches past m = 7."""

import pytest

from varchenko.faces import enumerate_faces
from varchenko.files import parse_arrangement
from corpus import DEGENERATE, random_arrangement
from oracles import com_axiom_violations


def _violations(complex_):
    halves = [f.half for f in complex_.faces]
    return com_axiom_violations(halves, complex_.arrangement.size)


def test_bundled_complexes_are_coms(complexes):
    for name, complex_ in complexes.items():
        assert _violations(complex_) == [], name


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_complexes_are_coms(name):
    assert _violations(enumerate_faces(parse_arrangement(DEGENERATE[name]))) == []


# (n, m, coefficient bound): bound 5 draws are in general position or close
# to it, bound 1 makes parallel and concurrent hyperplanes the rule
DRAWS = [(1, 6, 5), (2, 8, 5), (2, 10, 1), (3, 6, 5), (3, 8, 1), (4, 6, 5)]


@pytest.mark.parametrize("n, m, bound", DRAWS)
def test_seeded_draws_are_coms(n, m, bound):
    for seed in range(2):
        arrangement = random_arrangement(
            f"com-{seed}-r{n}-m{m}", n=n, m=m, coeff_bound=bound
        )
        assert _violations(enumerate_faces(arrangement)) == []


def _adjacent_chambers(complex_, panel):
    (e,) = panel.zero_set()
    return [
        complex_.by_half[panel.half | 1 << 2 * e + side] for side in (0, 1)
    ], e


def test_axioms_catch_a_missing_panel(generic3):
    # Without a panel, nothing lies between the two chambers it separates.
    panel = next(f for f in generic3.faces if f.dim == 1)
    (plus, minus), e = _adjacent_chambers(generic3, panel)
    halves = [f.half for f in generic3.faces if f is not panel]
    violations = com_axiom_violations(halves, 3)
    assert ("strong elimination", plus.half, minus.half, e) in violations


def test_axioms_catch_a_missing_chamber(generic3):
    # A panel composed with the opposite of the chamber beyond it gives the
    # chamber on its near side.
    panel = next(f for f in generic3.faces if f.dim == 1)
    (plus, minus), _ = _adjacent_chambers(generic3, panel)
    halves = [f.half for f in generic3.faces if f is not plus]
    violations = com_axiom_violations(halves, 3)
    assert ("face symmetry", panel.half, minus.half) in violations
