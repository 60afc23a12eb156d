"""Acceptance suite: one test per criterion, each printing a summary line.

Every expected value here is exact; the asserted time budgets are the
stated per-criterion runtime expectations.
"""

import random
import time
from fractions import Fraction as F

import pytest

from varchenko.apartments import chambers_in, enumerate_apartments
from varchenko.cli import main
from varchenko.euler import UNKNOWN, classify, lemma_ch_check, lemma_chm_check
from varchenko.faces import (
    brute_force_sign_vectors,
    centralization,
    enumerate_faces,
)
from varchenko.files import bundled_text, parse_matrix
from varchenko.geometry import MINUS, PLUS, ZERO, side_of
from varchenko.polyring import VarId, format_polynomial, weight
from varchenko.tits import tits_product, tits_semigroup_check
from varchenko.varmatrix import (
    DEFAULT_PRIME,
    det_symbolic,
    mad_recurrence_check,
    multiplicity,
    v_path_identity_check,
    verify_factorization,
)
from varchenko.witt import witt_sweep
from corpus import all_subsets, sweep_arrangements
from oracles import Polynomial

PLANE_NAMES = ("r1", "crossing", "generic3", "parallel2", "two_pairs")


@pytest.fixture(scope="module")
def corpus(complexes):
    """Named bundled complexes plus the seeded random n=2 corpus."""
    named = [(name, complexes[name]) for name in PLANE_NAMES]
    named.append(("r3", complexes["r3"]))
    seeded = [
        (name, enumerate_faces(arrangement))
        for name, arrangement in sweep_arrangements()
    ]
    return named + seeded


def _report(number, label, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"
    print(f"criterion {number} PASS: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_bundled_matrix_determinant(tmp_path, capsys):
    started = time.time()
    matrix_file = tmp_path / "two_pairs_apartment.vmx"
    matrix_file.write_text(bundled_text("two_pairs_apartment.vmx"))
    expected = "(1 - h2^+ h2^-)^2 (1 - h3^+ h3^-)^2 (1 - h4^+ h4^-)^3"
    assert main(["detfile", str(matrix_file), "--expected", expected]) == 0

    one = Polynomial.one(8)

    def pair(h):
        return Polynomial.variable(8, VarId(h, PLUS)) * Polynomial.variable(
            8, VarId(h, MINUS)
        )

    reference = (one - pair(1)) ** 2 * (one - pair(2)) ** 2 * (one - pair(3)) ** 3
    determinant = det_symbolic(parse_matrix(bundled_text("two_pairs_apartment.vmx")))
    assert determinant == reference
    with capsys.disabled():
        _report(1, "bundled 6x6 determinant factors exactly", started, 5.0)


def test_criterion_2_two_pairs_face_data(two_pairs, capsys):
    started = time.time()
    face = two_pairs.find((MINUS, MINUS, ZERO, ZERO))
    assert face is not None
    assert centralization(face) == {2, 3}  # H3 and H4
    assert format_polynomial(weight(face)) == "1 * h3^+ h3^- h4^+ h4^-"
    for h in (2, 3):
        assert multiplicity(two_pairs, face, h, two_pairs.chambers()) == 0
    with capsys.disabled():
        _report(2, "face (-,-,0,0): centralization {H3,H4}, weight, beta=0", started, 1.0)


def test_criterion_3_main_theorem_sweep(corpus, capsys):
    started = time.time()
    pairs = 0
    for name, complex_ in corpus:
        if complex_.dimension > 2:
            continue
        m = complex_.arrangement.size
        for subset in all_subsets(m):
            for apartment in enumerate_apartments(complex_, subset):
                result = verify_factorization(
                    complex_, apartment, seed=3, trials=10
                )
                assert result.status == "pass", (name, subset, result.details)
                expected_mode = (
                    "symbolic"
                    if len(chambers_in(complex_, apartment)) <= 12
                    else "modular"
                )
                assert result.details["mode"] == expected_mode
                pairs += 1
    assert pairs >= 300
    with capsys.disabled():
        _report(3, f"factorization + beta independence on {pairs} apartment pairs", started, 60.0)


def test_criterion_4_corollary_in_r3(r3, capsys):
    started = time.time()
    assert r3.dimension == 3
    assert len(r3.chamber_ids) == 15
    result = verify_factorization(r3, seed=2026, trials=10)
    assert result.status == "pass"
    assert result.details["mode"] == "modular"
    assert result.details["prime"] == 2**61 - 1 == DEFAULT_PRIME
    assert len(result.details["trials"]) == 10
    with capsys.disabled():
        _report(4, "full-arrangement factorization in R^3 via 10 modular trials", started, 30.0)


def test_criterion_5_witt_suite(corpus, capsys):
    started = time.time()
    checked = 0
    for name, complex_ in corpus:
        result = witt_sweep(complex_)
        assert result.status == "pass", (name, result.details)
        checked += result.details["nested_pairs"]
    assert checked > 0
    with capsys.disabled():
        _report(5, f"both Witt identities over {checked} nested pairs", started, 30.0)


def test_criterion_6_tits_suite(corpus, complexes, capsys):
    started = time.time()
    for name, complex_ in corpus:
        result = tits_semigroup_check(complex_)
        assert result.status == "pass", (name, result.details)

    rng = random.Random("acceptance-paths")
    t = F(1, 2**20)
    plane = [complexes[name] for name in PLANE_NAMES if complexes[name].dimension == 2]
    for _ in range(1000):
        complex_ = rng.choice(plane)
        f, g = rng.choice(complex_.faces), rng.choice(complex_.faces)
        product = tits_product(complex_, f, g)
        point = tuple(
            (1 - t) * a + t * b for a, b in zip(f.witness, g.witness)
        )
        signs = tuple(
            side_of(h, point) for h in complex_.arrangement.hyperplanes
        )
        assert signs == product.signs
    with capsys.disabled():
        _report(6, "semigroup laws exhaustively + 1000 witness-path checks", started, 30.0)


def test_criterion_7_lemma_suite(corpus, capsys):
    started = time.time()
    for name, complex_ in corpus:
        result = lemma_ch_check(complex_)
        assert result.status == "pass", (name, result.details)
        if complex_.dimension <= 2:
            result = lemma_chm_check(complex_)
            assert result.status == "pass", (name, result.details)
            assert result.details["skipped"] == [] or all(
                classify(complex_, complex_.face(i)) == UNKNOWN
                for i in result.details["skipped"]
            )
        assert v_path_identity_check(complex_).status == "pass", name
        assert mad_recurrence_check(complex_).status == "pass", name
    with capsys.disabled():
        _report(7, "Euler lemmas (n=2 corpus), v-path and recurrence everywhere", started, 60.0)


def test_criterion_8_oracle_equivalence(corpus, capsys):
    started = time.time()
    for name, complex_ in corpus:
        incremental = {f.signs for f in complex_.faces}
        oracle = brute_force_sign_vectors(complex_.arrangement)
        assert incremental == oracle, name
    with capsys.disabled():
        _report(8, "incremental enumeration equals 3^m brute force + LP", started, 30.0)
