import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import varchenko.faces as faces_module
from varchenko.faces import (
    brute_force_sign_vectors,
    centralization,
    closure_faces,
    enumerate_faces,
    face_leq,
    panels,
)
from varchenko.geometry import (
    MINUS,
    PLUS,
    SIGN_ORDER,
    ZERO,
    Arrangement,
    Hyperplane,
    affine_rank,
    feasible_interior,
    side_of,
)
from corpus import random_arrangement


def signs_of(complex_):
    return {f.signs for f in complex_.faces}


def test_single_hyperplane_line(r1):
    assert signs_of(r1) == {(PLUS,), (ZERO,), (MINUS,)}
    assert len(r1.chamber_ids) == 2


def test_crossing_lines_counts(crossing):
    assert len(crossing.faces) == 9
    assert len(crossing.chamber_ids) == 4
    rays = [f for f in crossing.faces if f.dim == 1 and not f.is_chamber]
    vertices = [f for f in crossing.faces if f.dim == 0]
    assert len(rays) == 4 and len(vertices) == 1


def test_generic_three_lines_counts(generic3):
    m = generic3.arrangement.size
    chambers = len(generic3.chamber_ids)
    edges = sum(1 for f in generic3.faces if f.dim == 1 and not f.is_chamber)
    vertices = sum(1 for f in generic3.faces if f.dim == 0)
    assert (len(generic3.faces), chambers, edges, vertices) == (19, 7, 9, 3)
    assert chambers == 1 + m + m * (m - 1) // 2


def test_find_requires_one_sign_per_hyperplane(crossing):
    assert crossing.find((PLUS, ZERO)).signs == (PLUS, ZERO)
    assert crossing.find((PLUS,)) is None
    assert crossing.find((PLUS, ZERO, ZERO)) is None


def test_empty_arrangement_single_chamber():
    complex_ = enumerate_faces(Arrangement(2, []))
    assert len(complex_.faces) == 1
    only = complex_.faces[0]
    assert only.is_chamber and only.dim == 2 and only.signs == ()


def test_face_ids_lexicographic_plus_zero_minus(crossing):
    ordered = [f.signs for f in crossing.faces]
    assert ordered[0] == (PLUS, PLUS)
    assert ordered[-1] == (MINUS, MINUS)
    assert ordered == sorted(
        ordered, key=lambda s: tuple({PLUS: 0, ZERO: 1, MINUS: 2}[x] for x in s)
    )


def test_face_leq_examples(r1):
    plus, zero = r1.find((PLUS,)), r1.find((ZERO,))
    assert face_leq(plus, plus)
    assert face_leq(zero, plus)
    assert not face_leq(plus, r1.find((MINUS,)))


def test_order_is_partial_order(crossing, generic3):
    for complex_ in (crossing, generic3):
        faces = complex_.faces
        for f in faces:
            assert face_leq(f, f)
            for g in faces:
                if face_leq(f, g) and face_leq(g, f):
                    assert f is g
                for k in faces:
                    if face_leq(f, g) and face_leq(g, k):
                        assert face_leq(f, k)


def test_closure_faces_examples(r1, crossing):
    chamber = r1.find((PLUS,))
    assert {f.signs for f in closure_faces(r1, chamber)} == {(PLUS,), (ZERO,)}
    quadrant = crossing.find((PLUS, PLUS))
    assert {f.signs for f in closure_faces(crossing, quadrant)} == {
        (PLUS, PLUS),
        (PLUS, ZERO),
        (ZERO, PLUS),
        (ZERO, ZERO),
    }
    assert quadrant in closure_faces(crossing, quadrant)


def test_panels_examples(r1, crossing, generic3):
    assert {f.signs for f in panels(r1, r1.find((PLUS,)))} == {(ZERO,)}
    quadrant = crossing.find((PLUS, PLUS))
    assert {f.signs for f in panels(crossing, quadrant)} == {
        (PLUS, ZERO),
        (ZERO, PLUS),
    }
    triangle = generic3.find((PLUS, PLUS, MINUS))
    assert triangle is not None and generic3.face_is_bounded(triangle)
    assert len(panels(generic3, triangle)) == 3


def test_panels_rejects_non_chamber(r1):
    with pytest.raises(ValueError):
        panels(r1, r1.find((ZERO,)))


def test_panel_has_exactly_one_zero(crossing, generic3, two_pairs):
    for complex_ in (crossing, generic3, two_pairs):
        for chamber in complex_.chambers():
            for panel in panels(complex_, chamber):
                assert sum(1 for s in panel.signs if s == ZERO) == 1


def test_centralization_examples(r1, crossing, two_pairs):
    face = two_pairs.find((MINUS, MINUS, ZERO, ZERO))
    assert centralization(face) == {2, 3}
    assert centralization(r1.find((ZERO,))) == {0}
    assert centralization(crossing.find((ZERO, ZERO))) == {0, 1}
    with pytest.raises(ValueError):
        centralization(crossing.find((PLUS, PLUS)))


def test_dim_formula_everywhere(complexes):
    for complex_ in complexes.values():
        n = complex_.dimension
        for face in complex_.faces:
            zero_normals = [
                complex_.arrangement.hyperplanes[i].normal
                for i in face.zero_set()
            ]
            assert face.dim == n - affine_rank(zero_normals)
            if not face.zero_set():
                assert face.dim == n


def test_witnesses_have_distinct_signs(complexes):
    for complex_ in complexes.values():
        hyperplanes = complex_.arrangement.hyperplanes
        seen = set()
        for face in complex_.faces:
            signs = tuple(side_of(h, face.witness) for h in hyperplanes)
            assert signs == face.signs
            assert signs not in seen
            seen.add(signs)


def test_random_point_lands_in_exactly_one_chamber(crossing, generic3):
    rng = random.Random("partition")
    for complex_ in (crossing, generic3):
        hyperplanes = complex_.arrangement.hyperplanes
        hits = 0
        while hits < 25:
            point = tuple(
                F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(2)
            )
            signs = tuple(side_of(h, point) for h in hyperplanes)
            if ZERO in signs:
                continue
            hits += 1
            matches = [c for c in complex_.chambers() if c.signs == signs]
            assert len(matches) == 1


def test_incremental_matches_brute_force_up_to_m5(complexes):
    for complex_ in complexes.values():
        assert signs_of(complex_) == brute_force_sign_vectors(
            complex_.arrangement
        )
    five = random_arrangement("faces-m5", n=2, m=5)
    assert signs_of(enumerate_faces(five)) == brute_force_sign_vectors(five)


def _hyperplanes(n):
    """Hyperplanes with coefficients in [-2, 2]: parallel and concurrent
    families are common, and so are witnesses lying on a new hyperplane."""
    coeff = st.integers(-2, 2)
    normal = st.tuples(*[coeff] * n).filter(any)
    return st.builds(
        Hyperplane,
        normal.map(lambda v: tuple(map(F, v))),
        coeff.map(F),
    )


def _arrangements(n, max_m):
    return st.lists(
        _hyperplanes(n),
        min_size=1,
        max_size=max_m,
        unique_by=lambda h: h.normalized_key(),
    ).map(lambda hs: Arrangement(n, hs))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_arrangements(2, 6), _arrangements(3, 5)))
def test_incremental_matches_brute_force_small_coefficients(arrangement):
    complex_ = enumerate_faces(arrangement)
    assert signs_of(complex_) == brute_force_sign_vectors(arrangement)
    for face in complex_.faces:
        realised = tuple(
            side_of(h, face.witness) for h in arrangement.hyperplanes
        )
        assert realised == face.signs


X = Hyperplane((F(1), F(0)), F(0))  # x = 0
Y = Hyperplane((F(0), F(1)), F(0))  # y = 0


@pytest.fixture
def lp_calls(monkeypatch):
    """Records the constraint list of every feasibility LP enumeration makes."""
    calls = []

    def counting(constraints):
        calls.append(constraints)
        return feasible_interior(constraints)

    monkeypatch.setattr(faces_module, "feasible_interior", counting)
    return calls


def _split_signs(constraints, witness, hyper):
    points = faces_module._split_witnesses(constraints, witness, hyper)
    for point in points:
        assert all(side_of(h, point) == s for h, s in constraints)
    return sorted((side_of(hyper, p) for p in points), key=SIGN_ORDER.get)


def test_split_face_inside_hyperplane(lp_calls):
    # The vertex x = y = 0 lies on x + y = 0: only the 0 extension, no LP.
    diagonal = Hyperplane((F(1), F(1)), F(0))
    constraints = [(X, ZERO), (Y, ZERO)]
    assert _split_signs(constraints, (F(0), F(0)), diagonal) == [ZERO]
    assert lp_calls == []


def test_split_witness_on_hyperplane_crossing(lp_calls):
    # The segment y = 0, -1 < x < 1 with witness (0, 0) crosses x = 0; the
    # side witnesses must stay strictly inside the segment, and no LP runs.
    left = Hyperplane((F(1), F(0)), F(-1))  # x = -1
    right = Hyperplane((F(1), F(0)), F(1))  # x = 1
    constraints = [(Y, ZERO), (left, PLUS), (right, MINUS)]
    signs = _split_signs(constraints, (F(0), F(0)), X)
    assert signs == [PLUS, ZERO, MINUS]
    assert lp_calls == []


def test_split_witness_off_hyperplane(lp_calls):
    # The half-plane y > 0 with witness (0, 1) crosses x = 1 (one LP, three
    # pieces) and misses y = -1 (one LP, the witness's side only).
    crossing = Hyperplane((F(1), F(0)), F(1))
    below = Hyperplane((F(0), F(1)), F(-1))
    constraints = [(Y, PLUS)]
    assert _split_signs(constraints, (F(0), F(1)), crossing) == [
        PLUS,
        ZERO,
        MINUS,
    ]
    assert _split_signs(constraints, (F(0), F(1)), below) == [PLUS]
    assert len(lp_calls) == 2


def test_at_most_one_lp_per_face_and_hyperplane(lp_calls, complexes):
    for name in ("two_pairs", "r3"):
        arrangement = complexes[name].arrangement
        lp_calls.clear()
        enumerate_faces(arrangement)
        pairs = [
            (tuple(constraints[:-1]), constraints[-1])
            for constraints in lp_calls
        ]
        assert all(last[1] == ZERO for _, last in pairs)
        assert len(set(pairs)) == len(pairs)
        n, hyperplanes = arrangement.dimension, arrangement.hyperplanes
        partial_faces = sum(
            len(enumerate_faces(Arrangement(n, hyperplanes[:k])).faces)
            for k in range(len(hyperplanes))
        )
        assert len(pairs) <= partial_faces
