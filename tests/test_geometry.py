import math
import random
from fractions import Fraction as F

import pytest
import sympy

from varchenko.geometry import (
    MINUS,
    PLUS,
    ZERO,
    Arrangement,
    Hyperplane,
    affine_rank,
    feasible_interior,
    is_bounded,
    side_of,
    transverse_direction,
)

H_LINE = Hyperplane([1], 0)
H1 = Hyperplane([1, 0], 0)
H2 = Hyperplane([0, 1], 0)


def test_side_of_definition():
    assert side_of(H_LINE, (F(1),)) == PLUS
    assert side_of(H_LINE, (F(0),)) == ZERO
    assert side_of(H_LINE, (F(-1, 2),)) == MINUS


def test_side_of_dimension_mismatch():
    with pytest.raises(ValueError):
        side_of(H_LINE, (F(1), F(1)))


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(ValueError):
        Hyperplane([0, 0], 1)


def test_arrangement_rejects_scaled_duplicates():
    with pytest.raises(ValueError):
        Arrangement(2, [Hyperplane([1, 1], 1), Hyperplane([-2, -2], -2)])


def test_feasible_interior_contradiction():
    assert feasible_interior([(H_LINE, PLUS), (H_LINE, MINUS)]) is None


def test_feasible_interior_witness_validates():
    point = feasible_interior([(H_LINE, PLUS)])
    assert point is not None and side_of(H_LINE, point) == PLUS


def test_feasible_interior_crossing_lines_all_nine():
    # Brute force: every one of the 3^2 sign vectors of two crossing
    # lines is realizable, and each witness re-checks exactly.
    feasible = 0
    for s1 in (PLUS, ZERO, MINUS):
        for s2 in (PLUS, ZERO, MINUS):
            point = feasible_interior([(H1, s1), (H2, s2)])
            assert point is not None
            assert side_of(H1, point) == s1 and side_of(H2, point) == s2
            feasible += 1
    assert feasible == 9


def test_feasible_interior_deterministic():
    constraints = [(H1, PLUS), (H2, MINUS)]
    assert feasible_interior(constraints) == feasible_interior(constraints)


def test_feasible_interior_random_self_validation():
    rng = random.Random("witness-validation")
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        planes = []
        while len(planes) < rng.randint(1, 4):
            normal = [F(rng.randint(-3, 3)) for _ in range(n)]
            if any(normal):
                planes.append(Hyperplane(normal, F(rng.randint(-3, 3))))
        constraints = [
            (h, rng.choice((PLUS, ZERO, MINUS))) for h in planes
        ]
        point = feasible_interior(constraints)
        if point is not None:
            for h, sign in constraints:
                assert side_of(h, point) == sign


def test_affine_rank_examples():
    assert affine_rank([]) == 0
    assert affine_rank([(1, 0), (0, 1)]) == 2
    assert affine_rank([(1, 1), (2, 2)]) == 1


def test_affine_rank_against_sympy():
    rng = random.Random("rank-oracle")
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        data = [
            [rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)
        ]
        assert affine_rank(data) == sympy.Matrix(data).rank()


def test_transverse_direction_examples():
    # 2x + y = 0 with y = 1 gives x = -1/2: d = (-1, 2) with scale 2.
    assert transverse_direction([(2, 1)], (1, 0)) == ((-1, 2), 2)
    # The first free column fails (x + y = 0 holds along (-1, 1, 0)).
    assert transverse_direction([(1, 1, 0)], (0, 0, 1)) == ((0, 0, 1), 1)
    assert transverse_direction([], (0, 3)) == ((0, 1), 1)
    assert transverse_direction([(1, 2)], (-2, -4)) is None


def test_transverse_direction_is_the_scaled_null_space_vector():
    rng = random.Random("transverse")
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        normals, normal = rows[1:rng.randint(1, n)], rows[0]
        found = transverse_direction(normals, normal)
        if found is None:
            assert affine_rank(normals + [normal]) == affine_rank(normals)
            continue
        d, s = found
        assert s > 0 and s in d and math.gcd(*d) == 1
        assert all(sum(a * x for a, x in zip(row, d)) == 0 for row in normals)
        assert sum(a * x for a, x in zip(normal, d)) != 0


def test_is_bounded_interval_and_ray():
    above = Hyperplane([1], 0)
    below = Hyperplane([1], 1)
    assert is_bounded([(above, PLUS), (below, MINUS)]) is True
    assert is_bounded([(above, PLUS)]) is False


def test_is_bounded_central_chamber_has_ray():
    assert is_bounded([(H1, PLUS), (H2, PLUS)]) is False


def test_is_bounded_infeasible_errors():
    with pytest.raises(ValueError):
        is_bounded([(H_LINE, PLUS), (H_LINE, MINUS)])
