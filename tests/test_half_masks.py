"""The half-space masks against the sign-vector oracles, and their behaviour
when one hyperplane is reoriented or the hyperplanes are permuted."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from varchenko.apartments import enumerate_apartments
from varchenko.faces import enumerate_faces, face_leq
from varchenko.files import bundled_text, parse_arrangement
from varchenko.geometry import ZERO, Arrangement, Hyperplane
from varchenko.polyring import weight
from varchenko.tits import opposite_through, tits_product
from varchenko.varmatrix import (
    DEFAULT_SYMBOLIC_THRESHOLD,
    _chamber_trace,
    beta_independence,
    det_symbolic,
    mad_recurrence_check,
    product_formula,
    v,
    v_path_identity_check,
    varchenko_matrix,
    verify_factorization,
)
from varchenko.witt import witt_lhs, witt_rhs
from conftest import BUNDLED, check_counts
from corpus import random_arrangement
from oracles import (
    Polynomial,
    chamber_trace,
    distance,
    faces_by_signs,
    leq_signs,
    mad_recurrence_violations,
    opposite_signs,
    relabel,
    relabel_polynomial,
    sign_product,
    v_path_violations,
    weight_of,
    witt_vectors,
)
from test_faces import _arrangements


def _apartment_subsets(m):
    yield from (s for k in (0, 1, 2) for s in combinations(range(m), k))
    yield tuple(range(m))


@settings(max_examples=50, deadline=None)
@given(st.one_of(_arrangements(2, 5), _arrangements(3, 4)))
def test_mask_operations_match_sign_vector_oracles(arrangement):
    complex_ = enumerate_faces(arrangement)
    faces = complex_.faces
    by_signs = faces_by_signs(complex_)
    product = sign_product(complex_)
    for f in faces:
        assert complex_.find(f.signs) is f
        zeros = tuple(h for h, s in enumerate(f.signs) if s == ZERO)
        assert f.zero_set() == zeros
        assert f.is_chamber == (not zeros)
        if zeros:
            assert weight(f) == weight_of(f)
        for g in faces:
            assert face_leq(f, g) == leq_signs(f.signs, g.signs)
            assert tits_product(complex_, f, g) is product(f, g)

    chambers = complex_.chambers()
    for d in chambers:
        for c in chambers:
            polynomial = Polynomial.square_free(2 * arrangement.size, v(c, d))
            assert polynomial == distance(c, d)
        for a in faces:
            if leq_signs(a.signs, d.signs):
                expected = by_signs[opposite_signs(a.signs, d.signs)]
                assert opposite_through(complex_, a, d) is expected
                assert (
                    witt_lhs(complex_, a, d),
                    witt_rhs(complex_, a, d),
                ) == witt_vectors(complex_, a, d)
        for h in range(arrangement.size):
            assert _chamber_trace(complex_, d, h) is chamber_trace(complex_, d, h)

    for subset in _apartment_subsets(arrangement.size):
        apartments = enumerate_apartments(complex_, subset)
        restricted = {tuple(c.signs[h] for h in subset) for c in chambers}
        assert {a.base_signs for a in apartments} == restricted
        for apartment in apartments:
            inside_ids = []
            for f in faces:
                inside = all(
                    f.signs[h] == s
                    for h, s in zip(apartment.subset, apartment.base_signs)
                )
                assert apartment.matches(f) == inside
                if inside:
                    inside_ids.append(f.id)
            assert apartment.chamber_ids
            assert apartment.chamber_ids == tuple(i for i in inside_ids if faces[i].is_chamber)
            assert apartment.face_ids == tuple(i for i in inside_ids if not faces[i].is_chamber)

    for check, oracle in (
        (v_path_identity_check, v_path_violations),
        (mad_recurrence_check, mad_recurrence_violations),
    ):
        result = check(complex_)
        expected = oracle(complex_)
        assert result.status == "pass" and not expected.pop("violations")
        assert result.details == expected


def _reorient(arrangement, i):
    """The same arrangement with the normal and offset of H_i negated."""
    hyperplanes = list(arrangement.hyperplanes)
    h = hyperplanes[i]
    hyperplanes[i] = Hyperplane(tuple(-a for a in h.normal), -h.offset)
    return Arrangement(arrangement.dimension, hyperplanes)


def _swap_bits(mask, i):
    plus, minus = mask >> 2 * i & 1, mask >> 2 * i + 1 & 1
    return mask & ~(3 << 2 * i) | minus << 2 * i | plus << 2 * i + 1


def _swap_variables(poly, i):
    """Substitute h_i^+ <-> h_i^- (0-based hyperplane i)."""
    swap = {2 * i: 2 * i + 1, 2 * i + 1: 2 * i}
    return Polynomial(
        poly.nvars,
        {
            tuple(sorted((swap.get(j, j), e) for j, e in m)): c
            for m, c in poly.terms.items()
        },
    )


@pytest.mark.parametrize("name", BUNDLED)
def test_reorienting_a_hyperplane_swaps_its_half_spaces(complexes, name):
    original = complexes[name]
    counts = check_counts(original)
    symbolic = len(original.chamber_ids) <= DEFAULT_SYMBOLIC_THRESHOLD
    if symbolic:
        det = det_symbolic(varchenko_matrix(original.chambers()))
    for i in range(original.arrangement.size):
        flipped = enumerate_faces(_reorient(original.arrangement, i))
        assert {f.half: f.dim for f in flipped.faces} == {
            _swap_bits(f.half, i): f.dim for f in original.faces
        }
        assert check_counts(flipped) == counts
        if symbolic:
            flipped_det = det_symbolic(varchenko_matrix(flipped.chambers()))
            assert flipped_det == _swap_variables(det, i)


def _permute(arrangement, perm):
    """The same arrangement with hyperplane i moved to position perm[i]."""
    hyperplanes = [None] * arrangement.size
    for i, hyperplane in enumerate(arrangement.hyperplanes):
        hyperplanes[perm[i]] = hyperplane
    return Arrangement(arrangement.dimension, hyperplanes)


def _grouped_product(complex_):
    faces = [f for f in complex_.faces if not f.is_chamber]
    betas, mismatches = beta_independence(complex_, faces, complex_.chambers())
    assert not mismatches
    return product_formula(complex_, faces, betas).factors.items()


def _assert_permuting_relabels(arrangement, perm):
    """Moving hyperplane i to position perm[i] renames h_i to h_perm[i] in
    the determinant and in the product formula, and both still agree."""
    original = enumerate_faces(arrangement)
    permuted = enumerate_faces(_permute(arrangement, perm))
    det = det_symbolic(varchenko_matrix(original.chambers()))
    permuted_det = det_symbolic(varchenko_matrix(permuted.chambers()))
    assert permuted_det == relabel_polynomial(det, perm)
    assert dict(_grouped_product(permuted)) == {
        relabel(mono, perm): k for mono, k in _grouped_product(original)
    }
    assert check_counts(permuted) == check_counts(original)
    assert verify_factorization(original).status == "pass"
    assert verify_factorization(permuted).status == "pass"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_permuting_hyperplanes_relabels_the_determinant(data):
    m = data.draw(st.integers(1, 4))
    arrangement = random_arrangement(data.draw(st.integers(0, 10**6)), n=2, m=m)
    _assert_permuting_relabels(arrangement, data.draw(st.permutations(range(m))))


@settings(max_examples=8, deadline=None)
@given(st.permutations(range(4)))
def test_permuting_the_hyperplanes_of_r3_relabels_the_determinant(perm):
    _assert_permuting_relabels(parse_arrangement(bundled_text("r3.arr")), perm)
