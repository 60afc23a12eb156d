"""Face counts of `enumerate_faces` and `face_is_bounded` against
Zaslavsky's counts from the intersection poset, on arrangements past the
reach of the 3^m brute force and on ones with large fractional
coefficients. The oracle uses exact ranks only, no LP."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from varchenko.faces import brute_force_sign_vectors, enumerate_faces
from varchenko.geometry import Arrangement, Hyperplane, side_of
from corpus import random_arrangement
from oracles import face_count_mismatches, zaslavsky_face_counts


def family_arrangement(seed, n, m):
    """Hyperplanes drawn from a few parallel classes and through a few
    shared points, so parallel and concurrent families are the rule."""
    rng = random.Random(f"family:{seed}")

    def normal():
        while True:
            a = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            if any(a):
                return a

    directions = [normal() for _ in range(3)]
    points = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(2)]
    hyperplanes, seen = [], set()
    while len(hyperplanes) < m:
        if rng.random() < 0.5:
            h = Hyperplane(rng.choice(directions), F(rng.randint(-3, 3)))
        else:
            a, point = normal(), rng.choice(points)
            h = Hyperplane(a, sum(x * y for x, y in zip(a, point)))
        if h.normalized_key() not in seen:
            seen.add(h.normalized_key())
            hyperplanes.append(h)
    return Arrangement(n, hyperplanes)


# (n, m, coefficient bound); bound 1 makes parallel and concurrent
# hyperplanes common
DRAWS = {
    **{f"random-r2-m{m}": (2, m, 5) for m in (6, 9, 12)},
    **{f"random-r3-m{m}": (3, m, 5) for m in (5, 8)},
    **{f"random-r4-m{m}": (4, m, 5) for m in (5, 7)},
    "random-r2-m10-small": (2, 10, 1),
    "random-r3-m8-small": (3, 8, 1),
}
FAMILIES = {f"family-r{n}-m{m}": (n, m) for n, m in ((2, 10), (3, 8), (4, 6))}
# normals of rank at most n - 2, where the complex has no vertex, so no face
# is bounded
LOW_RANK = {
    "empty-r2": (2, []),
    "parallel-planes-r3": (3, [((0, 0, 1), 0), ((0, 0, 2), 1), ((0, 0, -1), 3)]),
    "parallel-hyperplanes-r4": (4, [((1, 1, 0, 0), 0), ((2, 2, 0, 0), 1)]),
}


def _arrangement(name):
    if name in LOW_RANK:
        n, rows = LOW_RANK[name]
        return Arrangement(n, [Hyperplane(a, b) for a, b in rows])
    if name in FAMILIES:
        return family_arrangement(name, *FAMILIES[name])
    n, m, bound = DRAWS[name]
    return random_arrangement(name, n=n, m=m, coeff_bound=bound)


def _faces(arrangement):
    complex_ = enumerate_faces(arrangement)
    return [(f.dim, complex_.face_is_bounded(f)) for f in complex_.faces]


@pytest.mark.parametrize("name", [*DRAWS, *FAMILIES, *LOW_RANK])
def test_face_counts_match_zaslavsky(name):
    arrangement = _arrangement(name)
    expected = zaslavsky_face_counts(arrangement)
    assert face_count_mismatches(expected, _faces(arrangement)) == []


def _wide_arrangements(n):
    """Up to six hyperplanes in R^n with coefficients p/q, |p| <= 10^12 and
    1 <= q <= 10^6, so leading coefficients of either sign and numerators
    and denominators far past machine words."""
    coeff = st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**6))
    hyperplane = st.builds(Hyperplane, st.tuples(*[coeff] * n).filter(any), coeff)
    return st.lists(
        hyperplane, min_size=1, max_size=6, unique_by=lambda h: h.normalized_key()
    ).map(lambda hs: Arrangement(n, hs))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_wide_arrangements(2), _wide_arrangements(3)))
def test_large_fractional_coefficients(arrangement):
    complex_ = enumerate_faces(arrangement)
    faces = [(f.dim, complex_.face_is_bounded(f)) for f in complex_.faces]
    expected = zaslavsky_face_counts(arrangement)
    assert face_count_mismatches(expected, faces) == []
    for face in complex_.faces:
        realised = tuple(side_of(h, face.witness) for h in arrangement.hyperplanes)
        assert realised == face.signs
    if arrangement.size <= 4:
        signs = {f.signs for f in complex_.faces}
        assert signs == brute_force_sign_vectors(arrangement)


def test_zaslavsky_counts_of_small_examples():
    def lines(*rows):
        return Arrangement(2, [Hyperplane(r[:2], r[2]) for r in rows])

    # three generic lines: 3 vertices, 9 edges (3 bounded), 7 chambers (1)
    assert zaslavsky_face_counts(lines((1, 0, 0), (0, 1, 0), (1, 1, 1))) == (
        [3, 9, 7],
        [3, 3, 1],
    )
    # two parallel lines: |chi(1)| = 1 relatively bounded region, no
    # bounded face
    assert zaslavsky_face_counts(lines((0, 1, 0), (0, 1, 1))) == (
        [0, 2, 3],
        [0, 0, 0],
    )


def _mutations(faces):
    """Each single fault the oracle must catch: one face dropped, one
    dimension changed, one boundedness flag flipped."""
    n_faces = len(faces)
    for i in range(n_faces):
        yield faces[:i] + faces[i + 1 :]
        dim, bounded = faces[i]
        step = -1 if dim else 1
        yield faces[:i] + [(dim + step, bounded)] + faces[i + 1 :]
        yield faces[:i] + [(dim, not bounded)] + faces[i + 1 :]


@pytest.mark.parametrize("name", ["random-r2-m6", "family-r3-m8"])
def test_oracle_catches_every_single_fault(name):
    arrangement = _arrangement(name)
    expected = zaslavsky_face_counts(arrangement)
    faces = _faces(arrangement)
    assert face_count_mismatches(expected, faces) == []
    for mutated in _mutations(faces):
        assert face_count_mismatches(expected, mutated)
