"""The Tits product on faces, opposite chambers, nested intervals and rank."""

from __future__ import annotations

from .geometry import ZERO
from .faces import Face, FaceComplex


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


def tits_product(complex_: FaceComplex, f: Face, g: Face) -> Face:
    """FG: copy the signs of f, filling its zeros from g.

    The result is guaranteed to be a face of the arrangement; a missing
    sign vector is reported as a ComplexInvariantError.
    """
    signs = compose_signs(f.signs, g.signs)
    product = complex_.find(signs)
    if product is None:
        raise ComplexInvariantError(
            f"Tits product sign vector {signs} of faces {f.id}, {g.id} "
            "is not a face of the complex"
        )
    return product


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
    """All faces k with a <= k <= d."""
    if not complex_.leq(a, d):
        raise ValueError(f"{a!r} is not below {d!r}; no interval")
    return [
        k
        for k in complex_.faces
        if complex_.leq(a, k) and complex_.leq(k, d)
    ]


def rank(complex_: FaceComplex, face: Face) -> int:
    """dim F minus the minimum face dimension of the arrangement."""
    return face.dim - complex_.min_dim


def tits_semigroup_check(complex_: FaceComplex):
    """Exhaustive semigroup verification: associativity over all triples,
    idempotence, and the order/product compatibility F <= G iff FG = G."""
    from .report import FAIL, PASS, CheckResult

    faces = complex_.faces
    violations = []
    for f in faces:
        if tits_product(complex_, f, f) is not f:
            violations.append({"kind": "idempotence", "F": f.id})
        for g in faces:
            leq = complex_.leq(f, g)
            absorbed = tits_product(complex_, f, g) is g
            if leq != absorbed:
                violations.append(
                    {"kind": "order_compatibility", "F": f.id, "G": g.id}
                )
    triples = 0
    for e in faces:
        for f in faces:
            ef = tits_product(complex_, e, f)
            for g in faces:
                triples += 1
                left = tits_product(complex_, ef, g)
                right = tits_product(complex_, e, tits_product(complex_, f, g))
                if left is not right:
                    violations.append(
                        {
                            "kind": "associativity",
                            "E": e.id,
                            "F": f.id,
                            "G": g.id,
                        }
                    )
    details = {"faces": len(faces), "triples": triples}
    if violations:
        details["violations"] = violations
    return CheckResult("tits_semigroup", FAIL if violations else PASS, {}, details)
