"""Both generalized Witt identities, checked as exact integer chamber vectors.

The formal sums over chamber variables x_C reduce to integer coefficient
vectors indexed by chambers; linear independence of the x_C makes
coefficientwise equality the whole content of the identities. One function,
`signed_chamber_vector`, counts the signed vectors. It reads each face's
products with the chambers from the chamber columns of the complex's
product table, grouped by product (`tits.chamber_products`), so the
chambers C with FC = D are one lookup. `witt_vectors` memoizes the two
vectors of a nested pair, as their nonzero coefficients, for `witt_sweep`
and the m(A, D) recurrence in `varmatrix`, which scales them by distances.
"""

from __future__ import annotations

from .euler import BOUNDED, TYPE2, TYPE3, classify, euler_closure
from .faces import Face, FaceComplex, closure_faces, memoized
from .report import FAIL, PASS, SKIPPED, CheckResult
from .tits import chamber_products, nested_interval, opposite_through, rank


def signed_chamber_vector(complex_: FaceComplex, faces, d: Face):
    """The sum of (-1)^{rk F} over the listed faces F with FC = D, for each
    chamber C: {position of C in chamber order: coefficient}, holding the
    nonzero coefficients only."""
    coords = [0] * len(complex_.chamber_ids)
    for f in faces:
        sign = -1 if rank(complex_, f) % 2 else 1
        for i in chamber_products(complex_, f).get(d.id, ()):
            coords[i] += sign
    return {i: k for i, k in enumerate(coords) if k}


@memoized
def witt_vectors(complex_: FaceComplex, a: Face, d: Face):
    """(witt_lhs, witt_rhs) of the nested pair (A, D), each as
    {position of C in chamber order: coefficient} over its nonzero
    coefficients."""
    if not d.is_chamber:
        raise ValueError(f"Witt vectors require a chamber, got {d!r}")
    lhs = signed_chamber_vector(complex_, nested_interval(complex_, a, d), d)
    opposite = opposite_through(complex_, a, d)
    sign = -1 if rank(complex_, d) % 2 else 1
    rhs = dict.fromkeys(chamber_products(complex_, a).get(opposite.id, ()), sign)
    if rhs == lhs:
        rhs = lhs  # one dict for both sides when they agree
    return lhs, rhs


def _dense(complex_: FaceComplex, coords):
    vector = [0] * len(complex_.chamber_ids)
    for i, k in coords.items():
        vector[i] = k
    return vector


def witt_lhs(complex_: FaceComplex, a: Face, d: Face):
    """Coefficient at C: sum of (-1)^{rk F} over F in [A, D] with FC = D."""
    return _dense(complex_, witt_vectors(complex_, a, d)[0])


def witt_rhs(complex_: FaceComplex, a: Face, d: Face):
    """Coefficient at C: (-1)^{rk D} when AC is the opposite of D through A."""
    return _dense(complex_, witt_vectors(complex_, a, d)[1])


def witt2_check(complex_: FaceComplex, d: Face) -> CheckResult:
    """The closure identity: the vector sum over F <= D collapses to a
    single signed x_D, provided D is bounded or of type 2 or 3.

    The diagonal value is (-1)^{c_A} chi(closure of D); type-1 and
    unclassified chambers are skipped, never failed.
    """
    tag = classify(complex_, d)
    details = {"chamber": d.id, "type": tag}
    if tag not in (BOUNDED, TYPE2, TYPE3):
        return CheckResult("witt_closure", SKIPPED, {}, details)

    sign = -1 if complex_.min_dim % 2 else 1
    expected_diagonal = sign * euler_closure(complex_, d)
    counts = signed_chamber_vector(complex_, closure_faces(complex_, d), d)
    bad = []
    for i, c in enumerate(complex_.chambers()):
        total = counts.get(i, 0)
        want = expected_diagonal if c is d else 0
        if total != want:
            bad.append({"C": c.id, "coefficient": total, "expected": want})
    details["diagonal"] = expected_diagonal
    if bad:
        details["violations"] = bad
    return CheckResult("witt_closure", FAIL if bad else PASS, {}, details)


def witt_sweep(complex_: FaceComplex) -> CheckResult:
    """Exhaustive driver: the nested-pair identity for every (A, D) with D a
    chamber and A <= D, plus the closure identity for every eligible D."""
    pairs = 0
    pair_failures = []
    for d in complex_.chambers():
        for a in closure_faces(complex_, d):
            pairs += 1
            lhs, rhs = witt_vectors(complex_, a, d)
            if lhs != rhs:
                pair_failures.append({"A": a.id, "D": d.id})

    closure_failures = []
    skipped = []
    closure_checked = 0
    for d in complex_.chambers():
        result = witt2_check(complex_, d)
        if result.status == SKIPPED:
            skipped.append(d.id)
        else:
            closure_checked += 1
            if result.status == FAIL:
                closure_failures.append(result.details)

    details = {
        "nested_pairs": pairs,
        "closure_checked": closure_checked,
        "skipped_chambers": skipped,
    }
    if pair_failures or closure_failures:
        details["pair_failures"] = pair_failures
        details["closure_failures"] = closure_failures
        return CheckResult("witt_identities", FAIL, {}, details)
    return CheckResult("witt_identities", PASS, {}, details)
