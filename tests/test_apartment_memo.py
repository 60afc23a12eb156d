"""The apartment checks memoize their (status, details) on the face complex,
keyed by the apartment's chamber and face ids (and, for factorization, the
seed and trial count). A symbolic factorization pass is also kept per class
of apartments equal up to renaming hyperplanes, so each class expands one
determinant. A memoized sweep must report exactly what a check on a fresh
complex reports, apartment by apartment, and a product that differs from
its class's must still fail."""

import contextlib
import io
import json

import pytest

from varchenko import cli, varmatrix
from varchenko.apartments import enumerate_apartments
from varchenko.cli import main
from varchenko.faces import enumerate_faces
from varchenko.files import bundled_text, parse_arrangement
from varchenko.polyring import set_bits
from varchenko.varmatrix import (
    DEFAULT_SYMBOLIC_THRESHOLD,
    FactoredDet,
    beta_details,
    beta_independence_check,
    product_formula,
    resolve_apartment,
    varchenko_matrix,
    verify_factorization,
)


def cyclic(m):
    """The lines t x + y = t^2, t = 1..m, in general position."""
    return "dim 2\n" + "".join(f"{t} 1 {t * t}\n" for t in range(1, m + 1))


CYCLIC5 = cyclic(5)


def every_apartment(complex_):
    m = complex_.arrangement.size
    for mask in range(1 << m):
        yield from enumerate_apartments(
            complex_, [h for h in range(m) if mask >> h & 1]
        )


def report_entry(entry):
    """A check entry as JSON reads it back, with only its apartment as
    context (the report adds the arrangement's digest)."""
    entry = json.loads(json.dumps(entry, sort_keys=True))
    entry["context"] = {"apartment": entry["context"]["apartment"]}
    return entry


@pytest.mark.parametrize("text", [CYCLIC5, bundled_text("two_pairs.arr")],
                         ids=["cyclic5", "two_pairs"])
def test_sweep_equals_checks_on_fresh_complexes(text, tmp_path):
    path = tmp_path / "input.arr"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", str(path), "--checks", "beta,factorization",
              "--all-apartments", "--json", "--seed", "4"])
    swept = [report_entry(e) for e in json.loads(out.getvalue())["checks"]]

    # an apartment is a hyperplane subset and signs, valid in any complex of
    # the arrangement; each check below runs on a complex of its own
    apartments = list(every_apartment(enumerate_faces(parse_arrangement(text))))
    fresh = [
        check(enumerate_faces(parse_arrangement(text)), apartment, **kwargs)
        for check, kwargs in (
            (beta_independence_check, {}),
            (verify_factorization, {"seed": 4}),
        )
        for apartment in apartments
    ]
    assert swept == [report_entry(r.to_dict()) for r in fresh]
    modular = [e for e in swept if e["details"].get("mode") == "modular"]
    assert bool(modular) == (text == CYCLIC5)


def test_apartments_with_one_chamber_set_keep_their_own_description():
    complex_ = enumerate_faces(parse_arrangement(CYCLIC5))
    by_ids = {}
    for apartment in every_apartment(complex_):
        by_ids.setdefault(resolve_apartment(complex_, apartment)[1], []).append(apartment)
    shared = [group for group in by_ids.values() if len(group) > 1]
    assert shared
    for group in shared:
        for check in (beta_independence_check, verify_factorization):
            results = [check(complex_, apartment) for apartment in group]
            assert [r.context["apartment"] for r in results] == [
                a.describe() for a in group
            ]
            assert all(r.details is results[0].details for r in results)
    # the full arrangement and the empty subset share one record
    empty = enumerate_apartments(complex_, [])[0]
    assert resolve_apartment(complex_, None)[1:] == resolve_apartment(complex_, empty)[1:]
    assert verify_factorization(complex_).context == {"apartment": "full arrangement"}
    assert verify_factorization(complex_, empty).context == {
        "apartment": "R^n (empty subset)"
    }


def test_seed_and_trials_do_not_reuse_a_modular_record():
    text = CYCLIC5
    complex_ = enumerate_faces(parse_arrangement(text))
    assert len(complex_.chambers()) > DEFAULT_SYMBOLIC_THRESHOLD
    runs = [(1, 3), (2, 3), (1, 4), (1, 3)]
    memoized = [verify_factorization(complex_, seed=s, trials=t) for s, t in runs]
    for (seed, trials), result in zip(runs, memoized):
        assert result.details["mode"] == "modular"
        fresh = enumerate_faces(parse_arrangement(text))
        assert result.details == verify_factorization(
            fresh, seed=seed, trials=trials
        ).details
    digests = [[t["digest"] for t in r.details["trials"]] for r in memoized]
    assert digests[0] != digests[1]
    assert len(digests[2]) == 4 and digests[2][:3] == digests[0]
    assert memoized[3].details is memoized[0].details


def test_a_sweep_enumerates_apartments_once_and_draws_each_trial_once(
    tmp_path, monkeypatch
):
    calls = {"enumerate_apartments": 0, "modular_assignment": 0}
    for module, name in ((cli, "enumerate_apartments"), (varmatrix, "modular_assignment")):
        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    path = tmp_path / "cyclic5.arr"
    path.write_text(CYCLIC5)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", str(path), "--checks", "beta,factorization",
              "--all-apartments", "--json", "--trials", "4"])
    checks = json.loads(out.getvalue())["checks"]
    # the beta and factorization checks share one list of the apartments
    # of all 2^5 subsets
    assert calls["enumerate_apartments"] == 2**5
    modular = [e for e in checks if e["details"].get("mode") == "modular"]
    assert modular and all(len(e["details"]["trials"]) == 4 for e in modular)
    # one draw per trial serves both det V and the product
    assert calls["modular_assignment"] == 4 * len(modular)


def relabelled_class(chambers, factored):
    """The matrix entries and the product's factors with hyperplanes
    renumbered in order of first occurrence, in the entries row by row and
    then in the factors, each h^+ kept a plus variable."""
    label = {}

    def renamed(i):
        return 2 * label.setdefault(i // 2, len(label)) + i % 2

    entries = tuple(
        tuple(sum(1 << renamed(i) for i in set_bits(e)) for e in row)
        for row in varchenko_matrix(chambers).entries
    )
    factors = frozenset(
        (tuple(sorted((renamed(i), e) for i, e in mono)), k)
        for mono, k in factored.factors.items()
    )
    return entries, factors


def symbolic_apartments(text):
    """(apartment, ids, class) of every apartment of the sweep order that
    takes the symbolic route."""
    complex_ = enumerate_faces(parse_arrangement(text))
    for apartment in every_apartment(complex_):
        _, ids = resolve_apartment(complex_, apartment)
        chambers, non_chambers = ([complex_.faces[i] for i in part] for part in ids)
        if len(chambers) <= DEFAULT_SYMBOLIC_THRESHOLD:
            _, beta = beta_details(complex_, *ids)
            factored = product_formula(complex_, non_chambers, beta["betas"])
            yield apartment, ids, relabelled_class(chambers, factored)


def sweep(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", str(path), "--checks", "factorization",
              "--all-apartments", "--json"])
    return json.loads(out.getvalue())["checks"]


@pytest.mark.parametrize("m, classes", [(5, 20), (6, 32)])
def test_each_class_of_apartments_expands_once(m, classes, tmp_path, monkeypatch):
    expected = {key for _, _, key in symbolic_apartments(cyclic(m))}
    assert len(expected) == classes
    calls = []
    real = varmatrix.expand_rows
    monkeypatch.setattr(
        varmatrix, "expand_rows", lambda *args: calls.append(1) or real(*args)
    )
    path = tmp_path / "cyclic.arr"
    path.write_text(cyclic(m))
    assert all(e["status"] == "pass" for e in sweep(path))
    assert len(calls) == len(expected)


def test_a_product_off_its_class_still_fails(tmp_path, monkeypatch):
    # the target's class was worked by an earlier apartment with other ids,
    # and no other apartment shares the target's ids (and so its record)
    found = list(symbolic_apartments(CYCLIC5))
    ids_count = {}
    for _, ids, _ in found:
        ids_count[ids] = ids_count.get(ids, 0) + 1
    first_of_class = {}
    for apartment, ids, key in found:
        first_ids = first_of_class.setdefault(key, ids)
        if first_ids != ids and ids_count[ids] == 1:
            target = apartment, ids
            break
    else:
        pytest.fail("no apartment repeats a worked class under other ids")
    path = tmp_path / "cyclic5.arr"
    path.write_text(CYCLIC5)
    plain = sweep(path)

    real = varmatrix.product_formula

    def raised(complex_, non_chambers, betas):
        factored = real(complex_, non_chambers, betas)
        if tuple(f.id for f in non_chambers) != target[1][1]:
            return factored
        weight = next(iter(factored.factors))
        return FactoredDet(factored.nvars, [*factored.factors.items(), (weight, 1)])

    monkeypatch.setattr(varmatrix, "product_formula", raised)
    patched = sweep(path)
    assert len(patched) == len(plain)
    failed = [i for i, e in enumerate(patched) if e["status"] == "fail"]
    assert [patched[i]["context"]["apartment"] for i in failed] == [target[0].describe()]
    details = patched[failed[0]]["details"]
    assert details["mode"] == "symbolic"
    assert details["determinant"] and details["expected"]
    assert details["factored"] != plain[failed[0]]["details"]["factored"]
    for i, (a, b) in enumerate(zip(plain, patched)):
        if i != failed[0]:
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), i
