"""Both generalized Witt identities, checked as exact integer chamber vectors.

The formal sums over chamber variables x_C reduce to integer coefficient
vectors indexed by chambers; linear independence of the x_C makes
coefficientwise equality the whole content of the identities. One memoized
table per chamber D, `witt_sums`, packs each side of every nested pair
(A, D) into one int, a field per chamber, so an identity is one int
comparison. It reads each face's products with the chambers from the
chamber columns of the complex's product table, grouped by product
(`tits.chamber_products`), so the chambers C with FC = D are one lookup.
`witt_sweep`, `witt2_check` and the m(A, D) recurrence in `varmatrix`
compare the packed sums; `witt_vectors` and failure details decode them.
"""

from __future__ import annotations

from .euler import BOUNDED, TYPE2, TYPE3, classify, euler_closure
from .faces import Face, FaceComplex, closure_faces, memoized
from .report import FAIL, PASS, SKIPPED, CheckResult
from .tits import chamber_products, opposite_through, rank


@memoized
def witt_sums(complex_: FaceComplex, d: Face):
    """For the chamber D: (width w, the sum over the closure of D,
    {A: (lhs, rhs)} for every A <= D in id order). Each sum packs a chamber
    vector: field i, w = len(closure D).bit_length() + 1 bits wide, holds
    the coefficient at the chamber in position i.

    Each F <= D adds P_F = (-1)^{rk F} sum 2^{w pos C} over the chambers C
    with FC = D; lhs(A) sums P_F over A <= F, and rhs(A) is (-1)^{rk D}
    sum 2^{w pos C} over the C with AC the chamber opposite D through A.
    No coefficient exceeds len(closure D) < 2^{w-1} in size. Balanced
    digits |c| < 2^{w-1} are fewer than 2^w and distinct mod 2^w, so the
    value mod 2^w fixes the lowest one, and so on up: two sums are equal
    as ints exactly when their vectors are.
    """
    if not d.is_chamber:
        raise ValueError(f"Witt vectors require a chamber, got {d!r}")
    closure = closure_faces(complex_, d)
    width = len(closure).bit_length() + 1

    def signed(f, product, rk):
        fields = chamber_products(complex_, f).get(product.id, ())
        packed = sum([1 << width * i for i in fields])
        return -packed if rk % 2 else packed

    parts = [(f.half, signed(f, d, rank(complex_, f))) for f in closure]
    pairs = {
        a: (
            sum([p for half, p in parts if not a.half & ~half]),
            signed(a, opposite_through(complex_, a, d), rank(complex_, d)),
        )
        for a in closure
    }
    return width, sum(p for _, p in parts), pairs


def unpack(packed: int, width: int, count: int):
    """The first `count` balanced fields of a packed sum, lowest first."""
    half, mask, fields = 1 << width - 1, (1 << width) - 1, []
    for _ in range(count):
        fields.append(((packed + half) & mask) - half)
        packed = (packed - fields[-1]) >> width
    return fields


def witt_vectors(complex_: FaceComplex, a: Face, d: Face):
    """(witt_lhs, witt_rhs) of the nested pair (A, D), in chamber order."""
    width, _, pairs = witt_sums(complex_, d)
    if a not in pairs:
        raise ValueError(f"{a!r} is not below {d!r}")
    count = len(complex_.chamber_ids)
    return tuple(unpack(side, width, count) for side in pairs[a])


def witt_lhs(complex_: FaceComplex, a: Face, d: Face):
    """Coefficient at C: sum of (-1)^{rk F} over F in [A, D] with FC = D."""
    return witt_vectors(complex_, a, d)[0]


def witt_rhs(complex_: FaceComplex, a: Face, d: Face):
    """Coefficient at C: (-1)^{rk D} when AC is the opposite of D through A."""
    return witt_vectors(complex_, a, d)[1]


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
    details["diagonal"] = expected_diagonal
    width, total, _ = witt_sums(complex_, d)
    ids = complex_.chamber_ids
    if total == expected_diagonal << width * ids.index(d.id):
        return CheckResult("witt_closure", PASS, {}, details)
    details["violations"] = [
        {"C": c, "coefficient": k, "expected": want}
        for c, k in zip(ids, unpack(total, width, len(ids)))
        if k != (want := expected_diagonal if c == d.id else 0)
    ]
    return CheckResult("witt_closure", FAIL, {}, details)


def witt_sweep(complex_: FaceComplex) -> CheckResult:
    """Exhaustive driver: the nested-pair identity for every (A, D) with D a
    chamber and A <= D, plus the closure identity for every eligible D."""
    pairs = 0
    pair_failures = []
    for d in complex_.chambers():
        for a, (lhs, rhs) in witt_sums(complex_, d)[2].items():
            pairs += 1
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
