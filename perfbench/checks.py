"""Output checks for benchmark items, against oracles that need no LP.

General-position items are checked against closed forms (corpus.py).
Degenerate and bundled items are small (m <= 6) and are checked against
`brute_force_sign_vectors`, which LP-filters all 3^m sign vectors.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from corpus import apartment_total, f_vector, nested_pairs

SIGN_TEXT = {1: "+", 0: "0", -1: "-"}

CHECK_REPORT_NAMES = {
    "tits": "tits_semigroup",
    "witt": "witt_identities",
    "lemma_ch": "lemma_chi_closure",
    "lemma_chm": "lemma_chi_minus_panels",
    "v_path": "v_path_identity",
    "mad_recurrence": "mad_recurrence",
    "beta": "beta_independence",
    "factorization": "factorization",
}


@dataclass
class Expected:
    faces: int
    chambers: int
    nested_pairs: int
    apartments: int
    per_dim: list | None = None  # general position only
    signs: set | None = None  # brute force only, as "(+,0,-)" strings


def expected_for(item, cache_dir: Path) -> Expected:
    m = len(item.hyperplanes)
    if item.general_position:
        fv = f_vector(item.n, m)
        return Expected(sum(fv), fv[-1], nested_pairs(item.n, m),
                        apartment_total(item.n, m), per_dim=fv)
    found = _brute_force(item, cache_dir)
    chambers = [s for s in found if 0 not in s]
    pairs = sum(
        1 for c in chambers for f in found
        if all(x == 0 or x == y for x, y in zip(f, c))
    )
    apartments = 0
    for mask in range(1 << m):
        subset = [h for h in range(m) if mask >> h & 1]
        apartments += len({tuple(c[h] for h in subset) for c in chambers})
    signs = {"(" + ",".join(SIGN_TEXT[x] for x in s) + ")" for s in found}
    return Expected(len(found), len(chambers), pairs, apartments, signs=signs)


def _brute_force(item, cache_dir: Path):
    """brute_force_sign_vectors for the item, cached per input and source.

    The cache key covers the arrangement and every source file of the
    package, so a change to the program recomputes the oracle.
    """
    import varchenko
    from varchenko.faces import brute_force_sign_vectors
    from varchenko.geometry import Arrangement, Hyperplane

    digest = hashlib.sha256(repr((item.n, item.hyperplanes)).encode())
    for source in sorted(Path(varchenko.__file__).parent.glob("*.py")):
        digest.update(source.read_bytes())
    cached = cache_dir / f"oracle-{digest.hexdigest()[:20]}.json"
    if cached.is_file():
        return {tuple(s) for s in json.loads(cached.read_text())}
    arrangement = Arrangement(item.n, [Hyperplane(a, b) for a, b in item.hyperplanes])
    found = brute_force_sign_vectors(arrangement)
    cached.write_text(json.dumps(sorted(found)))
    return found


def check_output(workload, item, expected: Expected, code, text) -> str | None:
    """None when the item's exit code and output are right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if workload == "enumerate":
        return _check_faces(expected, payload)
    return _check_verify(item, expected, payload)


def _check_faces(expected, payload):
    faces = payload["faces"]
    if len(faces) != expected.faces:
        return f"{len(faces)} faces, expected {expected.faces}"
    if len(payload["chambers"]) != expected.chambers:
        return f"{len(payload['chambers'])} chambers, expected {expected.chambers}"
    if expected.per_dim is not None:
        dims = Counter(f["dim"] for f in faces)
        got = [dims.get(k, 0) for k in range(len(expected.per_dim))]
        if got != expected.per_dim:
            return f"f-vector {got}, expected {expected.per_dim}"
    if expected.signs is not None:
        if {f["signs"] for f in faces} != expected.signs:
            return "sign vectors differ from the brute-force oracle"
    return None


def _check_verify(item, expected, payload):
    checks = payload["checks"]
    bad = [c["name"] for c in checks if c["status"] != "pass"]
    if bad:
        return f"checks not passing: {sorted(set(bad))}"
    requested = item.argv[item.argv.index("--checks") + 1].split(",")
    per_target = expected.apartments if "--all-apartments" in item.argv else 1
    want = Counter({CHECK_REPORT_NAMES[c]: per_target if c in ("beta", "factorization") else 1
                    for c in requested})
    got = Counter(c["name"] for c in checks)
    if got != want:
        return f"report entries {dict(got)}, expected {dict(want)}"
    chambers, pairs = expected.chambers, expected.nested_pairs
    for c in checks:
        d = c["details"]
        name = c["name"]
        if name == "tits_semigroup" and (
            d["faces"] != expected.faces or d["triples"] != expected.faces**3
        ):
            return f"tits checked {d['faces']} faces / {d['triples']} triples"
        if name == "witt_identities" and d["nested_pairs"] != pairs:
            return f"witt nested pairs {d['nested_pairs']}, expected {pairs}"
        if name == "v_path_identity" and d["checked"] != chambers * pairs:
            return f"v_path checked {d['checked']}, expected {chambers * pairs}"
        if name == "mad_recurrence" and d["checked"] != pairs:
            return f"mad_recurrence checked {d['checked']}, expected {pairs}"
        if name == "lemma_chi_closure" and d["checked"] + len(d["skipped"]) != chambers:
            return "lemma_ch did not visit every chamber"
    return None
