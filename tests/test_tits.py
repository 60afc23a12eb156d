import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from varchenko.faces import Face, FaceComplex, closure_faces, enumerate_faces, face_leq
from varchenko.files import bundled_text, parse_arrangement
from varchenko import tits
from varchenko.geometry import MINUS, PLUS, ZERO, side_of
from varchenko.tits import (
    ComplexInvariantError,
    _product_row,
    nested_interval,
    opposite_through,
    rank,
    tits_product,
    tits_semigroup_check,
)
from oracles import compose_signs, sign_product, tits_semigroup_violations
from test_apartment_memo import cyclic
from test_faces import _arrangements


def test_chamber_absorbs_everything(crossing):
    chamber = crossing.find((PLUS, MINUS))
    for g in crossing.faces:
        assert tits_product(crossing, chamber, g) is chamber


def test_product_examples(r1, crossing):
    assert tits_product(r1, r1.find((ZERO,)), r1.find((PLUS,))) is r1.find((PLUS,))
    vertex = crossing.find((ZERO, ZERO))
    target = crossing.find((MINUS, PLUS))
    assert tits_product(crossing, vertex, target) is target


def test_idempotence_and_order_compatibility(crossing, generic3):
    for complex_ in (crossing, generic3):
        for f in complex_.faces:
            assert tits_product(complex_, f, f) is f
            for g in complex_.faces:
                assert face_leq(f, g) == (tits_product(complex_, f, g) is g)


def test_associativity_exhaustive_small(crossing, generic3):
    for complex_ in (crossing, generic3):
        faces = complex_.faces
        for e in faces:
            for f in faces:
                ef = tits_product(complex_, e, f)
                for g in faces:
                    assert tits_product(complex_, ef, g) is tits_product(
                        complex_, e, tits_product(complex_, f, g)
                    )


def test_semigroup_check_passes(two_pairs):
    assert tits_semigroup_check(two_pairs).status == "pass"


def _oracle_details(expected):
    details = {"faces": expected["faces"], "triples": expected["triples"]}
    if expected["violations"]:
        details["violations"] = expected["violations"]
    return details


@settings(max_examples=50, deadline=None)
@given(st.one_of(_arrangements(2, 5), _arrangements(3, 4)))
def test_product_table_matches_sign_vector_oracle(arrangement):
    complex_ = enumerate_faces(arrangement)
    product = sign_product(complex_)
    for f in complex_.faces:
        for g in complex_.faces:
            assert tits_product(complex_, f, g) is product(f, g)
    result = tits_semigroup_check(complex_)
    assert result.status == "pass"
    assert result.details == _oracle_details(tits_semigroup_violations(complex_))


def corrupted_generic3():
    """A fresh generic3 complex whose product table has one wrong entry:
    a vertex times a chamber above it gives the opposite chamber. Returns
    the complex and the same corrupted product for the oracles. Being
    fresh, the corrupted row cannot leak into other tests."""
    complex_ = enumerate_faces(parse_arrangement(bundled_text("generic3.arr")))
    vertex = next(f for f in complex_.faces if f.dim == 0 and f.id > 0)
    chamber = [d for d in complex_.chambers() if face_leq(vertex, d)][-1]
    wrong = opposite_through(complex_, vertex, chamber)
    row = list(_product_row(complex_, vertex))
    row[chamber.id] = wrong.id
    complex_._memo[_product_row][vertex,] = tuple(row)
    product = sign_product(complex_)

    def corrupted(f, g):
        return wrong if (f, g) == (vertex, chamber) else product(f, g)

    return complex_, corrupted


# The limit on faces for composing the table as bytes; 0 forces the
# itemgetter route on every complex.
ROUTES = {"bytes": tits._BYTE_FACES, "itemgetter": 0}


@pytest.mark.parametrize("route", ROUTES)
def test_semigroup_check_reports_a_corrupted_table_entry(route, monkeypatch):
    monkeypatch.setattr(tits, "_BYTE_FACES", ROUTES[route])
    complex_, corrupted = corrupted_generic3()
    expected = tits_semigroup_violations(complex_, corrupted)
    kinds = {v["kind"] for v in expected["violations"]}
    assert {"associativity", "order_compatibility"} <= kinds
    result = tits_semigroup_check(complex_)
    assert result.status == "fail"
    assert result.details == _oracle_details(expected)


@pytest.mark.parametrize("m, route", [(11, "bytes"), (12, "itemgetter")])
def test_semigroup_check_passes_on_either_side_of_the_byte_limit(m, route):
    # cyclic 11 has 243 faces and cyclic 12 has 289, around the 256 a byte holds
    complex_ = enumerate_faces(parse_arrangement(cyclic(m)))
    faces = len(complex_.faces)
    assert (faces <= tits._BYTE_FACES) == (route == "bytes")
    result = tits_semigroup_check(complex_)
    assert result.status == "pass"
    assert result.details == {"faces": faces, "triples": faces**3}


def test_missing_product_face_raises_complex_invariant_error(generic3):
    # A non-chamber face X that is the product of two other faces.
    missing, f, g = next(
        (x, f, g)
        for x in generic3.faces
        if not x.is_chamber
        for f in generic3.faces
        for g in generic3.faces
        if x not in (f, g) and compose_signs(f.signs, g.signs) == x.signs
    )
    kept = [h for h in generic3.faces if h is not missing]
    broken = FaceComplex(
        generic3.arrangement,
        [Face(h.signs, h.dim, h.point, i) for i, h in enumerate(kept)],
    )
    f, g = broken.find(f.signs), broken.find(g.signs)
    message = re.escape(f"mask {missing.half:#b})")
    with pytest.raises(ComplexInvariantError, match=message):
        tits_product(broken, f, g)
    assert (f,) not in broken._memo[_product_row]


def test_opposite_through_examples(r1, crossing):
    plus = r1.find((PLUS,))
    assert opposite_through(r1, plus, plus) is plus
    assert opposite_through(r1, r1.find((ZERO,)), plus) is r1.find((MINUS,))
    vertex = crossing.find((ZERO, ZERO))
    assert opposite_through(
        crossing, vertex, crossing.find((PLUS, PLUS))
    ) is crossing.find((MINUS, MINUS))


def test_opposite_through_is_involution(complexes):
    for complex_ in complexes.values():
        for d in complex_.chambers():
            for a in closure_faces(complex_, d):
                opp = opposite_through(complex_, a, d)
                assert opposite_through(complex_, a, opp) is d


def test_opposite_through_rejects_non_chamber(crossing):
    with pytest.raises(ValueError):
        opposite_through(
            crossing, crossing.find((ZERO, ZERO)), crossing.find((ZERO, PLUS))
        )


def test_nested_interval_examples(r1, crossing):
    top = crossing.find((PLUS, PLUS))
    assert nested_interval(crossing, top, top) == [top]
    assert {f.signs for f in nested_interval(r1, r1.find((ZERO,)), r1.find((PLUS,)))} == {
        (ZERO,),
        (PLUS,),
    }
    vertex = crossing.find((ZERO, ZERO))
    assert {f.signs for f in nested_interval(crossing, vertex, top)} == {
        (ZERO, ZERO),
        (ZERO, PLUS),
        (PLUS, ZERO),
        (PLUS, PLUS),
    }


def test_nested_interval_requires_comparable(crossing):
    with pytest.raises(ValueError):
        nested_interval(
            crossing, crossing.find((PLUS, PLUS)), crossing.find((MINUS, MINUS))
        )


def test_rank_examples(r1, crossing):
    assert rank(r1, r1.find((ZERO,))) == 0
    assert rank(r1, r1.find((PLUS,))) == 1
    assert rank(crossing, crossing.find((PLUS, MINUS))) == 2
    assert all(rank(crossing, f) >= 0 for f in crossing.faces)


def test_witness_path_enters_product_face(complexes):
    # Moving from the interior of F toward G, the segment enters FG first;
    # a tiny exact step of 2^-20 must carry the product's sign vector.
    rng = random.Random("witness-path")
    t = F(1, 2**20)
    names = ("crossing", "generic3", "parallel2", "two_pairs")
    for _ in range(200):
        complex_ = complexes[rng.choice(names)]
        f = rng.choice(complex_.faces)
        g = rng.choice(complex_.faces)
        product = tits_product(complex_, f, g)
        point = tuple(
            (1 - t) * a + t * b for a, b in zip(f.witness, g.witness)
        )
        signs = tuple(
            side_of(h, point) for h in complex_.arrangement.hyperplanes
        )
        assert signs == product.signs
