import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import varchenko.faces as faces_module
import varchenko.geometry as geometry
from varchenko.cli import main
from varchenko.files import parse_arrangement
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
    is_bounded,
    side_of,
)
from varchenko.lp import solve_lp
from conftest import check_counts
from corpus import DEGENERATE, random_arrangement
from test_apartment_memo import cyclic


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
    # signs other than +1, 0, -1 name no face, even when their bits would
    assert crossing.find((5, -7)) is None
    assert crossing.find((PLUS, 2)) is None


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
    assert brute_force_sign_vectors(Arrangement(2, [])) == {()}


@pytest.mark.parametrize("arrangement", [
    lambda: parse_arrangement(cyclic(9)),
    lambda: parse_arrangement(cyclic(10)),
    lambda: random_arrangement(0, 3, 8, coeff_bound=3),
], ids=["cyclic9", "cyclic10", "random_r3_m8"])
def test_incremental_matches_brute_force_past_3_to_the_m(arrangement):
    # the brute force extends only feasible prefixes, so cyclic m = 10
    # takes 1,740 LPs rather than 3^10 = 59,049
    arrangement = arrangement()
    assert signs_of(enumerate_faces(arrangement)) == brute_force_sign_vectors(arrangement)


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
DIAGONAL = Hyperplane((F(1), F(1)), F(0))  # x + y = 0


@contextlib.contextmanager
def counted_lps():
    """Records every exact LP solved through varchenko.geometry, which is
    where feasible_interior and is_bounded call the simplex."""
    calls = []

    def counting(*args):
        calls.append(args)
        return solve_lp(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "solve_lp", counting)
        yield calls


def rational(point):
    """The Fraction coordinates of a homogeneous integer point."""
    return tuple(F(x, point[-1]) for x in point[:-1])


def _split_pieces(constraints, witness, hyper):
    """(sign on hyper, dim) of each piece the split step makes of the face
    `constraints`, with its meet taken from the restriction to hyper. The
    hyperplanes go through the module's integer converter, and the witness
    is given in homogeneous integer coordinates (x_1, ..., x_n, d). Every
    new witness, turned back into Fractions, must lie in the face, on its
    piece's side."""
    prefix = [h.integer for h, _ in constraints]
    signs = tuple(s for _, s in constraints)
    zero_normals = [h.normal for h, s in constraints if s == ZERO]
    dim = len(witness) - 1 - affine_rank(zero_normals)
    with counted_lps() as calls:
        meet = faces_module._restriction(prefix, hyper.integer).get(signs)
        pieces = faces_module._split(
            list(zip(prefix, signs)), witness, dim, hyper.integer, meet
        )
    assert calls == []
    for sign, point, _ in pieces:
        point = rational(point)
        assert all(side_of(h, point) == s for h, s in constraints)
        assert side_of(hyper, point) == sign
    return sorted(((sign, d) for sign, _, d in pieces), key=lambda p: SIGN_ORDER[p[0]])


def test_split_face_inside_hyperplane():
    # The vertex x = y = 0 lies on x + y = 0: only the 0 extension.
    constraints = [(X, ZERO), (Y, ZERO)]
    assert _split_pieces(constraints, (0, 0, 1), DIAGONAL) == [(ZERO, 0)]


def test_split_witness_on_hyperplane_crossing():
    # The segment y = 0, -1 < x < 1 with witness (0, 0) crosses x = 0 in a
    # vertex; the side witnesses must stay strictly inside the segment.
    left = Hyperplane((F(1), F(0)), F(-1))  # x = -1
    right = Hyperplane((F(1), F(0)), F(1))  # x = 1
    constraints = [(Y, ZERO), (left, PLUS), (right, MINUS)]
    assert _split_pieces(constraints, (0, 0, 1), X) == [
        (PLUS, 1),
        (ZERO, 0),
        (MINUS, 1),
    ]


def test_split_witness_off_hyperplane():
    # The half-plane y > 0 with witness (0, 1) crosses x = 1 in a ray (three
    # pieces) and misses y = -1 (the witness's side only).
    crossing = Hyperplane((F(1), F(0)), F(1))
    below = Hyperplane((F(0), F(1)), F(-1))
    constraints = [(Y, PLUS)]
    assert _split_pieces(constraints, (0, 1, 1), crossing) == [
        (PLUS, 2),
        (ZERO, 1),
        (MINUS, 2),
    ]
    assert _split_pieces(constraints, (0, 1, 1), below) == [(PLUS, 2)]


def _restriction_meets(prefix, hyper):
    """{prefix sign vector: (Fraction witness, dim)} of the restriction of
    prefix to hyper, computed on the module's integer form, checking that
    every lifted witness lies on hyper with those signs."""
    meets = {
        signs: (rational(point), dim)
        for signs, (point, dim) in faces_module._restriction(
            [h.integer for h in prefix], hyper.integer
        ).items()
    }
    for signs, (point, _) in meets.items():
        assert side_of(hyper, point) == ZERO
        assert tuple(side_of(h, point) for h in prefix) == signs
    return meets


def _restriction_dims(prefix, hyper):
    return {signs: dim for signs, (_, dim) in _restriction_meets(prefix, hyper).items()}


def test_restriction_parallel_prefix_hyperplane():
    # y = 0 is parallel to y = 1, which lies wholly on its + side.
    assert _restriction_dims([Y], Hyperplane((F(0), F(1)), F(1))) == {
        (PLUS,): 1
    }


def test_restriction_merges_opposite_orientations():
    # On x + y = 0, both x = 0 and y = 0 restrict to the origin of the line,
    # with opposite positive sides: x > 0 there means y < 0.
    assert _restriction_dims([X, Y], DIAGONAL) == {
        (MINUS, PLUS): 1,
        (ZERO, ZERO): 0,
        (PLUS, MINUS): 1,
    }


def test_restriction_in_dimension_one_is_a_point():
    # 2x = 1 on the line is the point 1/2, between x = 0 and x = 1.
    zero, one = Hyperplane((F(1),), F(0)), Hyperplane((F(1),), F(1))
    meets = _restriction_meets([zero, one], Hyperplane((F(2),), F(1)))
    assert meets == {(PLUS, MINUS): ((F(1, 2),), 0)}


def test_restriction_with_negative_leading_coefficient():
    # -x - y = 0 and x + y = 0 are the same line: eliminating x through a
    # negative coefficient must give the same faces and the same points.
    prefix = [X, Y, Hyperplane((F(1), F(-1)), F(1))]
    flipped = Hyperplane((F(-1), F(-1)), F(0))

    def restrict(hyper):
        return faces_module._restriction([h.integer for h in prefix], hyper.integer)

    assert restrict(flipped) == restrict(DIAGONAL)
    assert len(_restriction_meets(prefix, flipped)) == 5


def test_restriction_of_fractional_hyperplanes():
    # On x + y = 1/5, the lines x/2 = 1/3 and 2y/3 = -1/6 (x = 2/3 and
    # y = -1/4) cut out the vertices (2/3, -7/15) and (9/20, -1/4).
    prefix = [
        Hyperplane((F(1, 2), F(0)), F(1, 3)),
        Hyperplane((F(0), F(2, 3)), F(-1, 6)),
    ]
    meets = _restriction_meets(prefix, Hyperplane((F(1), F(1)), F(1, 5)))
    assert {signs: dim for signs, (_, dim) in meets.items()} == {
        (MINUS, PLUS): 1,
        (MINUS, ZERO): 0,
        (MINUS, MINUS): 1,
        (ZERO, MINUS): 0,
        (PLUS, MINUS): 1,
    }
    assert meets[(ZERO, MINUS)][0] == (F(2, 3), F(-7, 15))
    assert meets[(MINUS, ZERO)][0] == (F(9, 20), F(-1, 4))


def _build_and_bound(arrangement):
    complex_ = enumerate_faces(arrangement)
    return [complex_.face_is_bounded(f) for f in complex_.faces]


def test_lp_counter_sees_the_simplex():
    with counted_lps() as calls:
        feasible_interior([(X, PLUS)])
        is_bounded([(X, PLUS), (Y, PLUS)])
    assert len(calls) >= 2


def test_face_complex_solves_no_lp(complexes):
    with counted_lps() as calls:
        for complex_ in complexes.values():
            _build_and_bound(complex_.arrangement)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(st.one_of(_arrangements(1, 4), _arrangements(2, 6), _arrangements(3, 5)))
def test_face_complex_solves_no_lp_sampled(arrangement):
    with counted_lps() as calls:
        _build_and_bound(arrangement)
    assert calls == []


# Rows a_1 .. a_n b of the hyperplanes a.x = b. The normals have rank n,
# n - 1 or n - 2, and below rank n no face is bounded.
BOUNDED_TEXTS = {
    "points-r1": "dim 1\n1 0\n2 1\n-1 3\n",
    "pencil-r2": "dim 2\n1 0 0\n0 1 0\n1 1 0\n1 -1 0\n",
    "pencil-r3": "dim 3\n1 0 0 0\n0 1 0 0\n1 1 0 0\n",
    "pencil-cut-r3": "dim 3\n1 0 0 0\n0 1 0 0\n1 1 0 0\n0 0 1 1\n",
    "rank2-r3": "dim 3\n1 0 0 0\n0 1 0 1\n1 1 0 3\n1 0 0 2\n",
    "rank1-r3": "dim 3\n0 0 1 0\n0 0 2 1\n0 0 -1 3\n",
    "rank3-r4": "dim 4\n1 0 0 0 0\n0 1 0 0 1\n0 0 1 0 2\n1 1 1 0 1\n",
    "rank2-r4": "dim 4\n1 0 0 0 0\n0 1 0 0 1\n1 1 0 0 3\n",
    "general-r4": "dim 4\n1 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0\n0 0 0 1 0\n1 1 1 1 2\n",
    **DEGENERATE,
}
BOUNDED_CASES = {name: parse_arrangement(text) for name, text in BOUNDED_TEXTS.items()}
for n, m in [(1, 3), (2, 5), (3, 4), (4, 5)]:
    for seed in range(3):
        BOUNDED_CASES[f"random-r{n}-m{m}-{seed}"] = random_arrangement(
            f"bounded:{seed}", n=n, m=m, coeff_bound=2
        )


@pytest.mark.parametrize("name", BOUNDED_CASES)
def test_face_is_bounded_matches_the_lp_oracle(name):
    arrangement = BOUNDED_CASES[name]
    complex_ = enumerate_faces(arrangement)
    for f in complex_.faces:
        expected = is_bounded(list(zip(arrangement.hyperplanes, f.signs)))
        assert complex_.face_is_bounded(f) == expected, f


@contextlib.contextmanager
def counted_fractions():
    """Records every Fraction built: through its constructor, and through
    the shortcut that arithmetic takes instead on Pythons that have one."""
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "__new__", counting_new)
        shortcut = F.__dict__.get("_from_coprime_ints")
        if shortcut is not None:

            def counting_shortcut(cls, *args):
                built.append(args)
                return shortcut.__func__(cls, *args)

            patch.setattr(F, "_from_coprime_ints", classmethod(counting_shortcut))
        yield built


def test_fraction_counter_sees_witnesses(crossing):
    with counted_fractions() as built:
        crossing.faces[0].witness
        F(1, 2) + F(1, 3)
    assert len(built) >= 3


def test_face_complex_builds_no_fraction(complexes):
    arrangements = [c.arrangement for c in complexes.values()]
    arrangements += [parse_arrangement(text) for text in DEGENERATE.values()]
    arrangements += [
        random_arrangement(f"no-fraction-{seed}", n=n, m=m, coeff_bound=5)
        for seed in range(3)
        for n, m in ((1, 4), (2, 7), (3, 6), (4, 6))
    ]
    with counted_fractions() as built:
        for arrangement in arrangements:
            _build_and_bound(arrangement)
    assert built == []


def _affine_image(arrangement, matrix, shift):
    """The arrangement moved by x -> matrix x + shift: a.x = b becomes
    (a M^-1).y = b + (a M^-1).shift, with every side kept."""
    inverse = sympy.Matrix(matrix).inv()
    moved = []
    for h in arrangement.hyperplanes:
        row = sympy.Matrix([h.normal]) * inverse
        normal = tuple(F(int(v.p), int(v.q)) for v in row)
        offset = h.offset + sum(a * t for a, t in zip(normal, shift))
        moved.append(Hyperplane(normal, offset))
    return Arrangement(arrangement.dimension, moved)


def _faces_json_rows(arrangement):
    text = f"dim {arrangement.dimension}\n" + "".join(
        " ".join(str(v) for v in (*h.normal, h.offset)) + "\n"
        for h in arrangement.hyperplanes
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "moved.arr"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["faces", str(path), "--json"]) == 0
    return json.loads(out.getvalue())["faces"]


@st.composite
def _affine_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    entry = st.integers(-3, 3).map(F)
    matrix = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        .filter(lambda m: sympy.Matrix(m).det() != 0)
    )
    shift = draw(
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n)
    )
    arrangement = draw(_arrangements(n, 6 if n == 2 else 5))
    return arrangement, matrix, shift


@settings(max_examples=40, deadline=None)
@given(_affine_cases())
def test_faces_invariant_under_affine_maps(case):
    # The restriction eliminates the first coordinate with a nonzero
    # coefficient, and an affine map changes which one that is at each step.
    arrangement, matrix, shift = case
    moved = _affine_image(arrangement, matrix, shift)
    before, after = enumerate_faces(arrangement), enumerate_faces(moved)
    assert [(f.signs, f.dim) for f in before.faces] == [
        (f.signs, f.dim) for f in after.faces
    ]
    assert [before.face_is_bounded(f) for f in before.faces] == [
        after.face_is_bounded(f) for f in after.faces
    ]
    assert _faces_json_rows(arrangement) == _faces_json_rows(moved)
    assert check_counts(before) == check_counts(after)
