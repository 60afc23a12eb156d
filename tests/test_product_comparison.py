"""The symbolic factorization check compares the row-reduced residual det V'
with the product formula divided by the pulled-out factors (1 - h^+ h^-)^c_h,
and falls back to det V against the whole product when that quotient is not
exact. Its verdict must be that of the full comparison in
`oracles.full_comparison`, and a failing record must show the same texts.
A modular comparison must fail exactly the trials where dense evaluation of
det V and of the product differ."""

import contextlib
import io
import random

import pytest

from varchenko import cli, varmatrix
from varchenko.faces import enumerate_faces, memoized
from varchenko.files import bundled_text, parse_arrangement
from varchenko.polyring import mask_monomial
from varchenko.varmatrix import (
    DEFAULT_PRIME,
    DEFAULT_SYMBOLIC_THRESHOLD,
    FactoredDet,
    beta_details,
    compare_with_product,
    modular_assignment,
    product_formula,
    reduce_rows,
    resolve_apartment,
    varchenko_matrix,
)
from corpus import random_arrangement
from oracles import Polynomial, det_at_dense, eval_mod_p, full_comparison
from test_apartment_memo import cyclic, every_apartment


ARRANGEMENTS = {
    "cyclic5": lambda: parse_arrangement(cyclic(5)),
    "cyclic6": lambda: parse_arrangement(cyclic(6)),
    "r3": lambda: parse_arrangement(bundled_text("r3.arr")),
    "two_pairs": lambda: parse_arrangement(bundled_text("two_pairs.arr")),
    "random_r2_m6": lambda: random_arrangement(0, n=2, m=6),
    "random_r3_m5": lambda: random_arrangement(0, n=3, m=5),
}


def distinct_apartments(complex_):
    """(chambers, non-chamber faces, ids) of every distinct apartment,
    the full arrangement included."""
    seen = {}
    for apartment in [None, *every_apartment(complex_)]:
        _, ids = resolve_apartment(complex_, apartment)
        chambers, non_chambers = ([complex_.faces[i] for i in part] for part in ids)
        seen[ids] = chambers, non_chambers, ids
    return list(seen.values())


def formula(complex_, non_chambers, ids):
    _, beta = beta_details(complex_, *ids)
    return product_formula(complex_, non_chambers, beta["betas"])


def symbolic_verdict(matrix, factored):
    mode, equal, _ = compare_with_product(matrix, factored, "symbolic", 0, 1)
    assert mode == "symbolic"
    return equal


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_verdict_matches_full_comparison_on_every_apartment(name):
    complex_ = enumerate_faces(ARRANGEMENTS[name]())
    apartments = distinct_apartments(complex_)
    for chambers, non_chambers, ids in apartments:
        matrix = varchenko_matrix(chambers)
        factored = formula(complex_, non_chambers, ids)
        assert symbolic_verdict(matrix, factored) == (full_comparison(matrix, factored) is None)
        assert factored.divided(reduce_rows(matrix)[1]) is not None, ids
    assert len(apartments) > 30


def with_exponent(factored, weight, exponent):
    return FactoredDet(factored.nvars, {**factored.factors, weight: exponent}.items())


def perturbations(factored, weights, counts):
    """Each weight's exponent raised by 1 and, where positive, lowered by 1
    (the products of some beta_F raised or lowered), then each
    (1 - h^+ h^-) exponent set to c_h - 1, whose quotient by the pulled-out
    factors is not exact."""
    for weight in weights:
        exponent = factored.factors.get(weight, 0)
        yield with_exponent(factored, weight, exponent + 1)
        if exponent:
            yield with_exponent(factored, weight, exponent - 1)
    for h, c in counts.items():
        yield with_exponent(factored, ((2 * h, 1), (2 * h + 1, 1)), c - 1)


def expected_record(matrix, factored):
    """The (status, details) a symbolic factorization record holds for
    `factored`: on a mismatch, the full expansions of both sides."""
    texts = full_comparison(matrix, factored)
    details = {"chambers": matrix.size, "factored": factored.text(), "mode": "symbolic"}
    if texts is None:
        return "pass", details
    return "fail", {**details, "determinant": texts[0], "expected": texts[1]}


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_perturbed_products_give_the_full_comparison_records(name, monkeypatch):
    # a failing record prints both expansions, so a seeded sample of the
    # apartments that the "auto" mode takes symbolically keeps this short
    complex_ = enumerate_faces(ARRANGEMENTS[name]())
    symbolic = [
        apartment for apartment in distinct_apartments(complex_)
        if len(apartment[0]) <= DEFAULT_SYMBOLIC_THRESHOLD
    ]
    cases = {"exact": 0, "not exact": 0}
    for chambers, non_chambers, ids in random.Random(name).sample(symbolic, 12):
        matrix = varchenko_matrix(chambers)
        factored = formula(complex_, non_chambers, ids)
        weights = {mask_monomial(face.zero) for face in non_chambers}
        counts = reduce_rows(matrix)[1]
        for product in perturbations(factored, weights, counts):
            monkeypatch.setattr(varmatrix, "product_formula", lambda *_: product)
            # the computation behind the memo, so each product gets its own record
            record = varmatrix._factorization.__wrapped__(complex_, *ids, 0, 10)
            assert record == expected_record(matrix, product), (ids, product.text())
            cases["exact" if product.divided(counts) else "not exact"] += 1
    assert min(cases.values()) >= 20, cases


def test_passing_sweep_expands_only_the_quotient(tmp_path, monkeypatch):
    # On a fresh complex every class of symbolic apartments (equal up to
    # renaming hyperplanes) is worked once. The record that works it must
    # expand neither det V nor the whole product: det_packed is not called,
    # and the factor powers expanded are those of the product divided by
    # the pulled-out factors. A record that finds its class passed expands
    # nothing.
    path = tmp_path / "cyclic5.arr"
    path.write_text(cyclic(5))
    calls = {"det_packed": 0, "expand_rows": 0}
    exponents = []
    records = []

    real_det_packed = varmatrix.det_packed
    real_expand_rows = varmatrix.expand_rows
    real_times = varmatrix._times_factor_power
    real_factorization = varmatrix._factorization.__wrapped__

    def det_packed(*args):
        calls["det_packed"] += 1
        return real_det_packed(*args)

    def expand_rows(*args):
        calls["expand_rows"] += 1
        return real_expand_rows(*args)

    def times_factor_power(packed, key, exponent):
        exponents.append(exponent)
        return real_times(packed, key, exponent)

    @memoized  # as the real record, so it runs once per apartment record
    def factorization(complex_, chamber_ids, face_ids, seed, trials):
        exponents.clear()
        calls["expand_rows"] = 0
        record = real_factorization(complex_, chamber_ids, face_ids, seed, trials)
        records.append((complex_, chamber_ids, face_ids, record,
                        sum(exponents), calls["expand_rows"]))
        return record

    monkeypatch.setattr(varmatrix, "det_packed", det_packed)
    monkeypatch.setattr(varmatrix, "expand_rows", expand_rows)
    monkeypatch.setattr(varmatrix, "_times_factor_power", times_factor_power)
    monkeypatch.setattr(varmatrix, "_factorization", factorization)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", str(path), "--checks", "factorization",
                         "--all-apartments", "--json"])
    assert code == 0
    assert calls["det_packed"] == 0

    symbolic = worked = 0
    for complex_, chamber_ids, face_ids, (status, details), expanded, works in records:
        assert status == "pass"
        if details["mode"] != "symbolic":
            continue
        symbolic += 1
        ids = chamber_ids, face_ids
        assert works in (0, 1), ids
        if not works:
            assert expanded == 0, ids
            continue
        worked += 1
        _, beta = beta_details(complex_, *ids)
        chambers = [complex_.faces[i] for i in chamber_ids]
        pulled_out = sum(reduce_rows(varchenko_matrix(chambers))[1].values())
        assert expanded == sum(beta["betas"].values()) - pulled_out, ids
    assert 0 < worked < symbolic
    assert symbolic > 50


def product_at(product, values, prime):
    """The product mod prime at `values`, each factor 1 - b evaluated by
    `eval_mod_p`."""
    value = 1
    for mono, exponent in product.factors.items():
        factor = Polynomial.one(product.nvars) - Polynomial(product.nvars, {mono: 1})
        value = value * pow(eval_mod_p(factor, values, prime), exponent, prime) % prime
    return value


@pytest.mark.parametrize("name", ["cyclic5", "r3"])
def test_perturbed_products_fail_the_modular_trials_the_oracles_tell_apart(name, monkeypatch):
    complex_ = enumerate_faces(ARRANGEMENTS[name]())
    modular = [
        apartment for apartment in distinct_apartments(complex_)
        if len(apartment[0]) > DEFAULT_SYMBOLIC_THRESHOLD
    ]
    assert modular
    trials = 6
    partial = 0
    # at the prime 3 a perturbed product often meets det V at some trials
    # and not at others, so the mismatches are a proper subset of the trials
    for prime in (DEFAULT_PRIME, 3):
        monkeypatch.setattr(varmatrix, "DEFAULT_PRIME", prime)
        for chambers, non_chambers, ids in modular:
            matrix = varchenko_matrix(chambers)
            factored = formula(complex_, non_chambers, ids)
            weights = {mask_monomial(face.zero) for face in non_chambers}
            drawn = [modular_assignment(matrix.nvars, 0, t, prime) for t in range(trials)]
            dets = [det_at_dense(matrix, values, prime) for values in drawn]
            for product in [factored, *perturbations(factored, weights, reduce_rows(matrix)[1])]:
                monkeypatch.setattr(varmatrix, "product_formula", lambda *_: product)
                status, details = varmatrix._factorization.__wrapped__(
                    complex_, *ids, 0, trials
                )
                assert details["mode"] == "modular"
                assert [t["value"] for t in details["trials"]] == dets
                products = [product_at(product, values, prime) for values in drawn]
                expected = [
                    {"trial": t["trial"], "digest": t["digest"], "determinant": d, "product": p}
                    for t, d, p in zip(details["trials"], dets, products) if d != p
                ]
                assert details.get("mismatches", []) == expected, product.text()
                assert status == ("fail" if expected else "pass")
                if prime == DEFAULT_PRIME:
                    assert (status == "pass") == (product is factored)
                partial += 0 < len(expected) < trials
    assert partial >= 5


def test_varchenko_modular_prints_a_mismatch_and_exits_1(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cyclic5.arr"
    path.write_text(cyclic(5))
    real = cli.product_formula

    def raised(complex_, non_chambers, betas):
        factored = real(complex_, non_chambers, betas)
        weight = next(iter(factored.factors))
        return with_exponent(factored, weight, factored.factors[weight] + 1)

    monkeypatch.setattr(cli, "product_formula", raised)
    assert cli.main(["varchenko", str(path), "--mode", "modular", "--trials", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    trials = [line for line in out if line.startswith("  trial ")]
    assert len(trials) == 3 and all(line.endswith("  MISMATCH") for line in trials)
    assert out[-1] == "verified: False"
