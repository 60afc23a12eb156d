"""Every identity check against the oracles of `oracles.py`, on the one-face
complex, on small bundled complexes and on seeded random complexes larger
than the bundled ones."""

import json

import pytest

from varchenko.cli import main
from varchenko.euler import _panel_masks, lemma_ch_check, lemma_chm_check
from varchenko.faces import enumerate_faces, panels
from varchenko.files import bundled_text
from varchenko.geometry import Arrangement
from varchenko.tits import tits_semigroup_check
from varchenko.varmatrix import mad_recurrence_check, v_path_identity_check
from varchenko.witt import witt_sweep
from corpus import random_arrangement
from oracles import (
    admissible_panel_subsets_scan,
    euler_minus_panels_scan,
    lemma_chm_details,
    mad_recurrence_violations,
    share_codim2_scan,
    sign_product,
    tits_semigroup_violations,
    v_path_violations,
    witt_pair_failures,
)

IDENTITY_CHECKS = "tits,witt,lemma_ch,lemma_chm,v_path,mad_recurrence"


def _expected(counts, violations):
    return {**counts, "violations": violations} if violations else counts


def _tabled_sign_product(complex_):
    """The sign-vector product, composed once per pair of faces."""
    product = sign_product(complex_)
    faces = complex_.faces
    table = {(f.id, g.id): product(f, g) for f in faces for g in faces}
    return lambda f, g: table[f.id, g.id]


def assert_identity_checks_match_oracles(complex_):
    product = _tabled_sign_product(complex_)
    expected = tits_semigroup_violations(complex_, product)
    assert tits_semigroup_check(complex_).details == _expected(
        {"faces": expected["faces"], "triples": expected["triples"]},
        expected["violations"],
    )
    failures = witt_pair_failures(complex_, product)
    assert witt_sweep(complex_).details.get("pair_failures", []) == failures
    for check, oracle in (
        (v_path_identity_check, v_path_violations),
        (mad_recurrence_check, mad_recurrence_violations),
    ):
        expected = oracle(complex_, product)
        assert check(complex_).details == _expected(
            {"checked": expected["checked"]}, expected["violations"]
        )
    assert lemma_chm_check(complex_).details == lemma_chm_details(complex_)


def test_identity_checks_on_the_empty_arrangement(tmp_path, capsys):
    # One face, the chamber R^2: every product table row has one entry.
    complex_ = enumerate_faces(Arrangement(2, []))
    assert_identity_checks_match_oracles(complex_)
    assert tits_semigroup_check(complex_).details == {"faces": 1, "triples": 1}
    assert witt_sweep(complex_).details["nested_pairs"] == 1
    assert v_path_identity_check(complex_).details == {"checked": 1}
    assert mad_recurrence_check(complex_).details == {"checked": 1}
    assert lemma_ch_check(complex_).details == {"checked": 0, "skipped": [0]}

    path = tmp_path / "empty.arr"
    path.write_text("dim 2\n")
    assert main(["verify", str(path), "--checks", IDENTITY_CHECKS, "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 6
    assert checks[0]["details"] == {"faces": 1, "triples": 1}


def test_identity_checks_on_r1(r1, tmp_path, capsys):
    assert_identity_checks_match_oracles(r1)
    path = tmp_path / "r1.arr"
    path.write_text(bundled_text("r1.arr"))
    assert main(["verify", str(path), "--checks", IDENTITY_CHECKS, "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["status"] for c in checks] == ["pass"] * 6
    assert checks[0]["details"] == {"faces": 3, "triples": 27}


def test_identity_checks_on_a_random_complex_in_r3():
    # 131 faces and 26 chambers, beyond every bundled complex: 2,248,091
    # associativity triples.
    complex_ = enumerate_faces(random_arrangement(1, 3, 5, coeff_bound=5))
    assert len(complex_.faces) == 131
    assert_identity_checks_match_oracles(complex_)


@pytest.mark.parametrize("seed, m", [(1, 5), (2, 5), (3, 6), (4, 6), (5, 7), (6, 7)])
def test_lemma_chm_matches_the_face_scan_in_the_plane(seed, m):
    complex_ = enumerate_faces(random_arrangement(seed, 2, m, coeff_bound=5))
    assert lemma_chm_check(complex_).details == lemma_chm_details(complex_)


def test_lemma_chm_matches_the_face_scan_on_r3(r3):
    details = lemma_chm_check(r3).details
    assert details == lemma_chm_details(r3)
    assert len(details["failures"]) == 6


def test_minus_panels_matches_the_face_scan(complexes):
    for name in ("generic3", "two_pairs", "r3"):
        complex_ = complexes[name]
        for chamber in complex_.chambers():
            masks = _panel_masks(complex_, chamber)
            bit = {f.id: 1 << i for i, f in enumerate(masks.panels)}
            for subset in admissible_panel_subsets_scan(complex_, chamber):
                mask = sum(bit[f.id] for f in subset)
                assert masks.chi_minus(mask) == euler_minus_panels_scan(complex_, chamber, subset)
            # Two panels are adjacent exactly when they share a
            # codimension-2 face.
            walls = panels(complex_, chamber)
            for i, f in enumerate(walls):
                for g in walls[i + 1 :]:
                    pair = bit[f.id] | bit[g.id]
                    assert masks.adjacent_within(pair) == share_codim2_scan(complex_, f, g)
