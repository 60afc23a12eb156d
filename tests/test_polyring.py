import pytest
from hypothesis import given, settings, strategies as st

from varchenko.geometry import MINUS, PLUS, ZERO
from varchenko.polyring import (
    VarId,
    format_polynomial,
    format_terms,
    parse_polynomial,
    read_terms,
    weight,
)
from oracles import Polynomial, eval_mod_p, zero_substitution

NV = 8


def var(h, sign=PLUS):
    return Polynomial.variable(NV, VarId(h, sign))


ONE = Polynomial.one(NV)


@st.composite
def polynomials(draw, nvars=6, max_terms=4, max_exp=2, coef_bound=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exponents = [draw(st.integers(0, max_exp)) for _ in range(nvars)]
        mono = tuple((i, e) for i, e in enumerate(exponents) if e)
        coef = draw(st.integers(-coef_bound, coef_bound))
        if coef:
            terms[mono] = coef
    return Polynomial(nvars, terms)


def test_basic_identities():
    x = var(0)
    assert (ONE - x) * (ONE + x) == ONE - x * x
    p = ONE - x * var(0, MINUS)
    assert (p + (-p)).is_zero()
    ab = var(0) * var(0, MINUS)
    sq = (ONE - ab) ** 2
    assert sq == ONE - ab.scale(2) + ab * ab


def test_zero_coefficients_are_dropped():
    x = Polynomial(1, {((0, 1),): 0})
    assert x.terms == {}
    assert x.is_zero()
    assert x == Polynomial.zero(1)
    assert (x * Polynomial.one(1)).is_zero()
    y = Polynomial(1, {(): 2, ((0, 1),): 0})
    assert y == Polynomial.constant(1, 2)
    assert y * Polynomial.one(1) == y


def test_pow_edge_cases():
    p = ONE - var(2)
    assert p**0 == ONE
    assert p**1 == p
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polynomials(nvars=4), polynomials(nvars=4), st.integers(0, 2**61 - 2))
def test_eval_is_ring_homomorphism(p, q, raw):
    prime = 2**61 - 1
    assignment = []
    value = raw
    for i in range(4):
        assignment.append(value % prime)
        value = (value * 6364136223846793005 + 1442695040888963407) % 2**64
    assert (
        eval_mod_p(p * q, assignment, prime)
        == eval_mod_p(p, assignment, prime) * eval_mod_p(q, assignment, prime) % prime
    )
    assert (
        eval_mod_p(p + q, assignment, prime)
        == (eval_mod_p(p, assignment, prime) + eval_mod_p(q, assignment, prime)) % prime
    )


def test_eval_examples():
    p = ONE - var(0) * var(0, MINUS)
    assert eval_mod_p(p, [2, 3], 101) == 96
    assert eval_mod_p(ONE, [], 101) == 1
    assert eval_mod_p(Polynomial.zero(NV), [], 101) == 0


def test_eval_requires_total_assignment():
    with pytest.raises(ValueError):
        eval_mod_p(var(0), [], 101)


def test_weight_examples(r1, crossing, two_pairs):
    face = two_pairs.find((MINUS, MINUS, ZERO, ZERO))
    assert format_polynomial(weight(face)) == "1 * h3^+ h3^- h4^+ h4^-"
    assert format_polynomial(weight(r1.find((ZERO,)))) == "1 * h1^+ h1^-"
    vertex = crossing.find((ZERO, ZERO))
    assert format_polynomial(weight(vertex)) == "1 * h1^+ h1^- h2^+ h2^-"
    with pytest.raises(ValueError):
        weight(crossing.find((PLUS, PLUS)))


def test_leading_term_graded_lex():
    # degree first, then lexicographic with h1^+ most significant
    p = var(0) ** 2 + var(0) * var(1)
    mono, coef = p.leading_term()
    assert mono == ((0, 2),) and coef == 1
    q = var(0, MINUS) ** 2 + var(0) * var(0, MINUS)
    mono, _ = q.leading_term()
    assert mono == ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        Polynomial.zero(NV).leading_term()


def test_serialization_fixed_forms():
    assert format_polynomial(Polynomial.zero(NV)) == "0"
    assert format_polynomial(ONE) == "1"
    p = ONE - var(0) * var(0, MINUS)
    assert format_polynomial(p) == "1 - 1 * h1^+ h1^-"
    assert format_polynomial((var(1) ** 3 * var(3, MINUS)).scale(2)) == "2 * h2^+^3 h4^-"


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_serialization_roundtrip(p):
    assert parse_polynomial(format_polynomial(p), p.nvars) == p


def test_parse_tolerates_implied_coefficient():
    assert parse_polynomial("h2^- h3^-", NV) == var(1, MINUS) * var(2, MINUS)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("1 + bogus", NV)
    with pytest.raises(ValueError):
        parse_polynomial("", NV)
    with pytest.raises(ValueError):
        parse_polynomial("1 * h0^+", NV)


def test_read_terms_merges_sparse_terms_and_inverts_format_terms():
    # a ring of a million variables costs nothing: terms hold only the
    # variables that occur, like terms merge and zero exponents drop
    text = "2 - 1 * h1^+ h3^-^2 + h3^-^2 h1^+ + 1 * h2^+^0 h1^-"
    terms = read_terms(text, 10**6)
    assert terms == [(2, ()), (1, ((1, 1),))]
    assert format_terms(terms) == "2 + 1 * h1^-"
    assert read_terms(format_terms(terms), 4) == terms
    assert read_terms("0", 2) == [] and format_terms([]) == "0"
    with pytest.raises(ValueError, match="outside ring"):
        read_terms("1 * h3^+", 4)


def test_zero_substitution():
    p = (ONE - var(0) * var(0, MINUS)) * (ONE - var(1) * var(1, MINUS))
    assert zero_substitution(p, [0]) == ONE - var(1) * var(1, MINUS)
    assert zero_substitution(p, [0, 1]) == ONE


def test_mixing_rings_rejected():
    with pytest.raises(ValueError):
        Polynomial.one(2) + Polynomial.one(4)
