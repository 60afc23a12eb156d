"""The Tits product on faces, opposite chambers, nested intervals and rank."""

from __future__ import annotations

from operator import itemgetter

from .faces import Face, FaceComplex, closure_faces, face_leq, memoized
from .report import FAIL, PASS, CheckResult

# Up to this many faces every face id fits in one byte, and associativity
# composes the product table as bytes.
_BYTE_FACES = 256


class ComplexInvariantError(RuntimeError):
    """A face that must exist in the complex is missing.

    This never fires on a correctly enumerated complex; it indicates an
    enumeration bug rather than bad user input.
    """


@memoized
def _product_row(complex_: FaceComplex, f: Face):
    """The ids of FG for every face G, in id order.

    This is the one place a Tits product is computed: the half-spaces of f,
    plus those of g on the hyperplanes containing f. A missing face is
    reported as a ComplexInvariantError.
    """
    lookup = complex_.by_half.get
    half, zero = f.half, f.zero
    products = [lookup(half | (g.half & zero)) for g in complex_.faces]
    if None in products:
        g = complex_.faces[products.index(None)]
        raise ComplexInvariantError(
            f"Tits product of faces {f.id}, {g.id} (half-space mask "
            f"{half | (g.half & zero):#b}) is not a face of the complex"
        )
    return tuple([p.id for p in products])


@memoized
def chamber_products(complex_: FaceComplex, f: Face):
    """f's products with the chambers, read from the chamber columns of its
    row of the product table: {id of FC: the positions of those chambers C
    in chamber order}."""
    row = _product_row(complex_, f)
    found = {}
    for i, c in enumerate(complex_.chamber_ids):
        found.setdefault(row[c], []).append(i)
    return found


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
    holds the id of FG for every G. For each E, the block of (EF)G over all
    (F, G) is the rows of EF joined, and the block of E(FG) is the whole
    table read through the row of E. Up to `_BYTE_FACES` faces the rows are
    bytes: one `join` and one `translate` per E. Above it, one `itemgetter`
    per F reads the row of E at the entries of the row of F. Blocks are
    compared whole, and only a mismatch is walked entry by entry to list
    the violating (F, G). `triples` counts the entries compared. Order
    compatibility takes the order from `face_leq`, never from the table.
    """
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
    violations.extend(_associativity_violations(table))
    details = {"faces": len(faces), "triples": len(faces) ** 3}
    if violations:
        details["violations"] = violations
    return CheckResult("tits_semigroup", FAIL if violations else PASS, {}, details)


def _associativity_violations(table):
    """The triples (E, F, G) with (EF)G != E(FG), in that order."""
    n = len(table)
    if n <= _BYTE_FACES:
        rows = [bytes(row) for row in table]
        flat, pad = b"".join(rows), bytes(256 - n)
        for e, row_e in enumerate(rows):
            left = b"".join(map(rows.__getitem__, row_e))
            right = flat.translate(row_e + pad)
            if left != right:
                for i, (lg, rg) in enumerate(zip(left, right)):
                    if lg != rg:
                        f, g = divmod(i, n)
                        yield {"kind": "associativity", "E": e, "F": f, "G": g}
        return
    through = [itemgetter(*row) for row in table]
    for e, row_e in enumerate(table):
        for f, (ef, read) in enumerate(zip(row_e, through)):
            left, right = table[ef], read(row_e)
            if left != right:
                for g, (lg, rg) in enumerate(zip(left, right)):
                    if lg != rg:
                        yield {"kind": "associativity", "E": e, "F": f, "G": g}
