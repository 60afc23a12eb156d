"""The Tits product on faces, opposite chambers, nested intervals and rank."""

from __future__ import annotations

from .geometry import ZERO
from .faces import Face, FaceComplex, closure_faces


class ComplexInvariantError(RuntimeError):
    """A sign vector that must exist in the complex is missing.

    This never fires on a correctly enumerated complex; it indicates an
    enumeration bug rather than bad user input.
    """


class NestedFace:
    """A pair lower <= upper in the face order.

    The strict constructor enforces lower < upper; the default allows
    equality, which several identities (intervals containing the top
    chamber, the base case of the distance recurrence) require.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, complex_: FaceComplex, lower: Face, upper: Face):
        if not complex_.leq(lower, upper):
            raise ValueError(
                f"{lower!r} is not below {upper!r} in the face order"
            )
        self.lower = lower
        self.upper = upper

    @classmethod
    def strict(cls, complex_: FaceComplex, lower: Face, upper: Face):
        if lower.id == upper.id:
            raise ValueError("strict nested face requires lower != upper")
        return cls(complex_, lower, upper)


def compose_signs(f_signs, g_signs):
    return tuple(
        sf if sf != ZERO else sg for sf, sg in zip(f_signs, g_signs)
    )


def _product_row(complex_: FaceComplex, f: Face):
    """The ids of FG for every face G, in id order, computed on first use.

    This is the one place a Tits product is computed: copy the signs of f,
    filling its zeros from g. A missing sign vector is reported as a
    ComplexInvariantError and leaves no row behind.
    """
    row = complex_._products.get(f.id)
    if row is None:
        ids = []
        for g in complex_.faces:
            signs = compose_signs(f.signs, g.signs)
            product = complex_.by_signs.get(signs)
            if product is None:
                raise ComplexInvariantError(
                    f"Tits product sign vector {signs} of faces {f.id}, "
                    f"{g.id} is not a face of the complex"
                )
            ids.append(product.id)
        row = complex_._products[f.id] = tuple(ids)
    return row


def tits_product(complex_: FaceComplex, f: Face, g: Face) -> Face:
    """FG: copy the signs of f, filling its zeros from g.

    The result is guaranteed to be a face of the arrangement; a missing
    sign vector is reported as a ComplexInvariantError.
    """
    return complex_.faces[_product_row(complex_, f)[g.id]]


def opposite_through(complex_: FaceComplex, a: Face, d: Face) -> Face:
    """The chamber opposite d through a: flip d's signs where a is zero."""
    if not d.is_chamber:
        raise ValueError(f"opposite_through requires a chamber, got {d!r}")
    if not complex_.leq(a, d):
        raise ValueError(f"{a!r} is not below {d!r}")
    signs = tuple(
        -sd if sa == ZERO else sa for sa, sd in zip(a.signs, d.signs)
    )
    opposite = complex_.find(signs)
    if opposite is None:
        raise ComplexInvariantError(
            f"opposite chamber sign vector {signs} missing from the complex"
        )
    return opposite


def nested_interval(complex_: FaceComplex, a: Face, d: Face):
    """All faces k with a <= k <= d, in id order."""
    if not complex_.leq(a, d):
        raise ValueError(f"{a!r} is not below {d!r}; no interval")
    return [k for k in closure_faces(complex_, d) if complex_.leq(a, k)]


def rank(complex_: FaceComplex, face: Face) -> int:
    """dim F minus the minimum face dimension of the arrangement."""
    return face.dim - complex_.min_dim


def tits_semigroup_check(complex_: FaceComplex):
    """Exhaustive semigroup verification: associativity over all triples,
    idempotence, and the order/product compatibility F <= G iff FG = G.

    Every law is read off the complex's product table, whose row for F
    holds the id of FG for every G. For each pair (E, F), the row of
    (EF)G over all G is the table row of EF, and the row of E(FG) is the
    row of F mapped through the row of E; the two rows are compared whole,
    and only a mismatch is walked entry by entry to list the violating G.
    `triples` counts the entries compared. Order compatibility takes the
    order from `complex_.leq`, never from the table.
    """
    from .report import FAIL, PASS, CheckResult

    faces = complex_.faces
    table = [_product_row(complex_, f) for f in faces]
    violations = []
    for f in faces:
        row = table[f.id]
        if row[f.id] != f.id:
            violations.append({"kind": "idempotence", "F": f.id})
        for g in faces:
            if complex_.leq(f, g) != (row[g.id] == g.id):
                violations.append(
                    {"kind": "order_compatibility", "F": f.id, "G": g.id}
                )
    triples = 0
    for e, row_e in enumerate(table):
        through_e = row_e.__getitem__
        for f, row_f in enumerate(table):
            left = table[row_e[f]]
            right = tuple(map(through_e, row_f))
            triples += len(right)
            if left != right:
                violations.extend(
                    {"kind": "associativity", "E": e, "F": f, "G": g}
                    for g, (lg, rg) in enumerate(zip(left, right))
                    if lg != rg
                )
    details = {"faces": len(faces), "triples": triples}
    if violations:
        details["violations"] = violations
    return CheckResult("tits_semigroup", FAIL if violations else PASS, {}, details)
