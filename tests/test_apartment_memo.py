"""The apartment checks memoize their (status, details) on the face complex,
keyed by the apartment's chamber and face ids (and, for factorization, the
seed and trial count). A memoized sweep must report exactly what a check on
a fresh complex reports, apartment by apartment."""

import contextlib
import io
import json

import pytest

from varchenko.apartments import enumerate_apartments
from varchenko.cli import main
from varchenko.faces import enumerate_faces
from varchenko.files import bundled_text, parse_arrangement
from varchenko.varmatrix import (
    DEFAULT_SYMBOLIC_THRESHOLD,
    beta_independence_check,
    resolve_apartment,
    verify_factorization,
)

CYCLIC5 = "dim 2\n" + "".join(f"{t} 1 {t * t}\n" for t in range(1, 6))


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
        by_ids.setdefault(resolve_apartment(complex_, apartment)[3], []).append(apartment)
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
