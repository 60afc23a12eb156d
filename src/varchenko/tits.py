"""The Tits product on faces, opposite chambers, nested intervals and rank."""

from __future__ import annotations

from .faces import Face, FaceComplex, closure_faces, face_leq


class ComplexInvariantError(RuntimeError):
    """A face that must exist in the complex is missing.

    This never fires on a correctly enumerated complex; it indicates an
    enumeration bug rather than bad user input.
    """


def _product_row(complex_: FaceComplex, f: Face):
    """The ids of FG for every face G, in id order, computed on first use.

    This is the one place a Tits product is computed: the half-spaces of f,
    plus those of g on the hyperplanes containing f. A missing face is
    reported as a ComplexInvariantError and leaves no row behind.
    """
    row = complex_._products.get(f.id)
    if row is None:
        by_half = complex_.by_half
        ids = []
        for g in complex_.faces:
            half = f.half | (g.half & f.zero)
            product = by_half.get(half)
            if product is None:
                raise ComplexInvariantError(
                    f"Tits product of faces {f.id}, {g.id} (half-space mask "
                    f"{half:#b}) is not a face of the complex"
                )
            ids.append(product.id)
        row = complex_._products[f.id] = tuple(ids)
    return row


def tits_product(complex_: FaceComplex, f: Face, g: Face) -> Face:
    """FG: the signs of f, with its zeros filled from g.

    The result is guaranteed to be a face of the arrangement; a missing
    face is reported as a ComplexInvariantError.
    """
    return complex_.faces[_product_row(complex_, f)[g.id]]


def opposite_through(complex_: FaceComplex, a: Face, d: Face) -> Face:
    """The chamber opposite d through a: flip d's signs where a is zero."""
    if not d.is_chamber:
        raise ValueError(f"opposite_through requires a chamber, got {d!r}")
    if not face_leq(a, d):
        raise ValueError(f"{a!r} is not below {d!r}")
    half = a.half | (a.zero & ~d.half)
    opposite = complex_.by_half.get(half)
    if opposite is None:
        raise ComplexInvariantError(
            f"opposite chamber (half-space mask {half:#b}) missing from the complex"
        )
    return opposite


def nested_interval(complex_: FaceComplex, a: Face, d: Face):
    """All faces k with a <= k <= d, in id order."""
    if not face_leq(a, d):
        raise ValueError(f"{a!r} is not below {d!r}; no interval")
    return [k for k in closure_faces(complex_, d) if face_leq(a, k)]


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
    order from `face_leq`, never from the table.
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
            if face_leq(f, g) != (row[g.id] == g.id):
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
