"""Face poset of an arrangement: sign vectors, order, chambers, panels.

A face is identified with its sign vector (one of +/0/- per hyperplane),
stored as the bitmask `half` of the open half-spaces that contain it: bit
2h for H_h^+ and bit 2h+1 for H_h^-, the order of the ring variables
h_h^+, h_h^-. A face on H_h sets neither bit; its mask `zero` sets both.
Every face operation is set algebra on these masks (faces with the
composition of covectors form a conditional oriented matroid):

* order:     F <= G  iff  F.half is a subset of G.half
* product:   FG = F.half | (G.half & F.zero)
* opposite of chamber D through A <= D:  A.half | (A.zero & ~D.half)

The sign tuple stays for input and output: formatting, the + < 0 < - id
order and `FaceComplex.find`.

Enumeration is incremental: hyperplanes are inserted one at a time and every
existing face is split into the nonempty members of its three sign
extensions. Which faces the new hyperplane H meets, and where, comes from the
faces of the earlier hyperplanes restricted to H, an arrangement of one
dimension less enumerated by the same recursion: a face meets H in exactly
one face of the restriction (Zaslavsky, *Facing up to arrangements*, 1975).
Boundedness is read off the complex's own edges, by the vertices in their
closures. Neither step solves an LP, and neither uses Fractions: the
recursion runs on the primitive integer form of each hyperplane
(`Hyperplane.integer`) and on points in homogeneous integer coordinates,
with common factors divided out as it goes, in the integer-preserving spirit
of Bareiss (1968); its one elimination, `geometry.transverse_direction`, is
integer too. Fractions appear only when a face's `witness` is read. A
brute-force enumerator that LP-tests sign vectors, extending only feasible
prefixes, is kept as an independent oracle.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import wraps
from operator import mul

from .geometry import (
    MINUS,
    PLUS,
    SIGN_CHARS,
    SIGN_ORDER,
    ZERO,
    canonical,
    feasible_interior,
    primitive,
    transverse_direction,
)


def half_mask(signed) -> int:
    """Bitmask of the open half-spaces named by (hyperplane, sign) pairs:
    bit 2h for H_h^+ and 2h+1 for H_h^-; a zero sign sets neither."""
    return sum(1 << (2 * h + (s == MINUS)) for h, s in signed if s != ZERO)


def sign_key(signs):
    """Sort key implementing the face id convention + < 0 < -."""
    return tuple(SIGN_ORDER[s] for s in signs)


def format_signs(signs) -> str:
    return "(" + ",".join(SIGN_CHARS[s] for s in signs) + ")"


class Face:
    """One face: sign vector, half-space masks, dimension, and an interior
    witness point.

    The witness is kept as a homogeneous integer point (x_1, ..., x_n, d),
    d > 0, standing for x/d, and turned into Fractions when `witness` is
    read.
    """

    __slots__ = ("signs", "half", "zero", "dim", "id", "point")

    def __init__(self, signs, dim, point, face_id):
        self.signs = tuple(signs)
        self.half = half_mask(enumerate(self.signs))
        # bit 2h of `even` for every hyperplane h; a face on H_h has
        # neither of its bits in `half`
        even = ((1 << 2 * len(self.signs)) - 1) // 3
        self.zero = (even & ~(self.half | self.half >> 1)) * 3
        self.dim = dim
        self.id = face_id
        self.point = tuple(point)

    @property
    def witness(self):
        """The interior point as a tuple of Fractions."""
        d = self.point[-1]
        return tuple(Fraction(x, d) for x in self.point[:-1])

    @property
    def is_chamber(self) -> bool:
        return not self.zero

    def zero_set(self):
        """Indices of hyperplanes containing this face."""
        zero = self.zero
        return tuple(h for h in range(zero.bit_length() // 2) if zero >> 2 * h & 1)

    def __repr__(self):
        return f"Face(id={self.id}, signs={format_signs(self.signs)}, dim={self.dim})"


class FaceComplex:
    """The full face poset of an arrangement, immutable once built.

    Faces carry ids assigned in lexicographic sign-vector order (+ < 0 < -),
    so every downstream matrix and report is reproducible. Queries are
    read-only; derived data is kept in `_memo`, a table per `memoized` function.
    """

    def __init__(self, arrangement, faces):
        self.arrangement = arrangement
        self.faces = tuple(faces)
        self.by_half = {f.half: f for f in self.faces}
        self.chamber_ids = tuple(f.id for f in self.faces if f.is_chamber)
        self.min_dim = min((f.dim for f in self.faces), default=0)
        self._memo = defaultdict(dict)  # memoized function -> {args: result}
        # symbolic factorization passes up to renaming hyperplanes (varmatrix._class_key);
        # passes only, not a memo table: a class not in it is compared in full
        self._passing_classes = set()

    @property
    def dimension(self) -> int:
        return self.arrangement.dimension

    def chambers(self):
        return [self.faces[i] for i in self.chamber_ids]

    def face(self, face_id) -> Face:
        return self.faces[face_id]

    def find(self, signs) -> Face | None:
        """The face with this sign vector, +1, 0 or -1 per hyperplane, or None."""
        signs = tuple(signs)
        if len(signs) != self.arrangement.size or not all(s in (PLUS, ZERO, MINUS) for s in signs):
            return None
        return self.by_half.get(half_mask(enumerate(signs)))

    def face_is_bounded(self, face: Face) -> bool:
        """Whether the face is bounded: the complex has a vertex, and no
        edge below the face has fewer than two vertices in its closure.

        With a vertex the normals span R^n, so the closure of an unbounded
        face is a pointed polyhedron and holds an extreme ray: an edge with
        at most one vertex. A bounded face has only bounded faces below it.
        Without a vertex the normals do not span R^n, and a direction normal
        to all of them moves every face within itself: none is bounded.
        """
        return self.min_dim == 0 and all(e & ~face.half for e in _unbounded_edges(self))

    def __repr__(self):
        return (
            f"FaceComplex(n={self.dimension}, m={self.arrangement.size}, "
            f"faces={len(self.faces)}, chambers={len(self.chamber_ids)})"
        )


def memoized(compute):
    """`compute(complex_, *args)`, computed once per complex and args: the
    result is kept in the complex's table for this function alone, keyed by
    the args (a face hashes by identity). A call that raises stores nothing."""

    @wraps(compute)
    def cached(complex_, *args):
        table = complex_._memo[cached]
        value = table.get(args, table)  # the table itself marks a miss
        if value is table:
            value = table[args] = compute(complex_, *args)
        return value

    return cached


def face_leq(f: Face, g: Face) -> bool:
    """The face order: every open half-space containing f contains g."""
    return not f.half & ~g.half


def enumerate_faces(arrangement) -> FaceComplex:
    """Build the face poset by inserting hyperplanes one at a time.

    Each partial face F, with a witness w in its relative interior, splits on
    the new hyperplane H into those of F & H+, F & H, F & H- that are
    nonempty. The faces of the earlier hyperplanes restricted to H, found in
    dimension n - 1 by the same recursion, name each F that meets H and give
    a point z and the dimension of F & H. So no LP decides the split:

    * F meets no restriction face: F stays on w's side.
    * w off H: z witnesses F & H, and z + eps*(z - w) the far side.
    * w on H: if F & H has the dimension of F, F lies inside H. Otherwise a
      direction d along F crossing H gives the witnesses w +- eps*d.

    The step eps is half the shortest one at which a strict constraint of F
    would change sign, so every new witness stays inside F, and the side
    pieces keep the dimension of F.
    """
    hyperplanes = [h.integer for h in arrangement.hyperplanes]
    pieces = _face_pieces(arrangement.dimension, hyperplanes)
    pieces.sort(key=lambda piece: sign_key(piece[0]))
    faces = [
        Face(signs, dim, point, face_id)
        for face_id, (signs, point, dim) in enumerate(pieces)
    ]
    return FaceComplex(arrangement, faces)


def _value(hyper, point):
    """a.x - b*d: a positive multiple of the hyperplane's value at x/d."""
    normal, offset = hyper
    return sum(map(mul, normal, point)) - offset * point[-1]


def _side(hyper, point):
    value = _value(hyper, point)
    return PLUS if value > 0 else MINUS if value < 0 else ZERO


def _face_pieces(n, hyperplanes):
    """(signs, witness, dim) of every face of the integer hyperplanes in
    R^n, with homogeneous witnesses; R^0 has the single face ()."""
    partial = [((), (0,) * n + (1,), n)]
    for k, hyper in enumerate(hyperplanes):
        prefix = hyperplanes[:k]
        meets = _restriction(prefix, hyper)
        partial = [
            (signs + (sign,), point, piece_dim)
            for signs, witness, dim in partial
            for sign, point, piece_dim in _split(
                zip(prefix, signs), witness, dim, hyper, meets.get(signs)
            )
        ]
    return partial


def _restriction(prefix, hyper):
    """{sign vector of F: (point of F & H, dim of F & H)} for every face F
    of the prefix hyperplanes that meets H = hyper.

    H is parametrised by the coordinates other than the first one, p, with
    a nonzero coefficient a_p. Eliminating x_p turns a prefix hyperplane g
    into |a_p|*g - sign(a_p)*g_p*hyper, a positive multiple of g on H. One
    parallel to H has one side on all of H; the others restrict to
    hyperplanes of H, merged when equal.
    """
    a, b = hyper
    p = next(i for i, x in enumerate(a) if x)
    scale, sign = abs(a[p]), (1 if a[p] > 0 else -1)
    others = a[:p] + a[p + 1 :]
    merged = {}  # distinct restricted hyperplane -> its index
    places = []  # per prefix hyperplane: (index in merged or None, sign)
    for normal, offset in prefix:
        factor = sign * normal[p]
        normal = [scale * c - factor * x for c, x in zip(normal, a)]
        del normal[p]
        offset = scale * offset - factor * b
        if not any(normal):
            places.append((None, PLUS if offset < 0 else MINUS))
            continue
        key, orientation = canonical(normal, offset)
        places.append((merged.setdefault(key, len(merged)), orientation))
    meets = {}
    for signs, point, dim in _face_pieces(len(others), list(merged)):
        lifted = [scale * x for x in point]
        lifted.insert(p, sign * (b * point[-1] - sum(map(mul, others, point))))
        key = tuple(s if i is None else s * signs[i] for i, s in places)
        meets[key] = (primitive(lifted), dim)
    return meets


def _split(constraints, witness, dim, hyper, meet):
    """(sign on hyper, witness, dim) of each nonempty piece of the face
    `constraints` cut by hyper; meet is (point, dim) of the face's
    intersection with hyper, or None when they are disjoint, and only then
    are the face's (hyperplane, sign) pairs left unread. Hyperplanes
    and points are in integer form; a direction is an integer tuple with
    last entry 0 and a positive scale s, standing for the vector
    direction/s."""
    side = _side(hyper, witness)
    if meet is None:
        return ((side, witness, dim),)
    constraints = list(constraints)
    point, meet_dim = meet
    if side != ZERO:
        # z - w = (d_w*x_z - d_z*x_w) / (d_z*d_w)
        d_z, d_w = point[-1], witness[-1]
        direction = [d_w * z - d_z * w for z, w in zip(point, witness)]
        u, v = _step(constraints, point, direction, d_z * d_w)
        far = primitive([u * x + v * y for x, y in zip(point, direction)])
        return ((side, witness, dim), (ZERO, point, meet_dim), (-side, far, dim))
    if meet_dim == dim:
        return ((ZERO, witness, dim),)
    zero_normals = [h[0] for h, s in constraints if s == ZERO]
    direction, scale = transverse_direction(zero_normals, hyper[0])
    direction = (*direction, 0)
    u, v = _step(constraints, witness, direction, scale)
    ahead = primitive([u * x + v * y for x, y in zip(witness, direction)])
    behind = primitive([u * x - v * y for x, y in zip(witness, direction)])
    side = _side(hyper, ahead)
    return ((ZERO, witness, meet_dim), (side, ahead, dim), (-side, behind, dim))


def _step(constraints, point, direction, scale):
    """Weights (u, v) making u*point +- v*direction the points
    x/d +- eps*direction/scale, where point is (x, d) and eps is half the
    shortest step at which a strict constraint reaches its hyperplane, or
    1 if none ever does, giving (u, v) = (scale, d). Along h, with value c
    at point and slope t = a.direction, that step is |c|*scale / (|t|*d),
    so the shortest one minimises |c|/|t|, compared by cross-multiplication,
    and gives (u, v) = (2|t|, |c|)."""
    best = None
    for h, s in constraints:
        if s != ZERO and (slope := sum(map(mul, h[0], direction))):
            value, slope = abs(_value(h, point)), 2 * abs(slope)
            if best is None or value * best[0] < best[1] * slope:
                best = slope, value
    return best or (scale, point[-1])


@memoized
def _unbounded_edges(complex_):
    """Masks of the edges with fewer than two vertices in their closure:
    the rays, and the whole lines when there is no vertex."""
    vertices = [f.half for f in complex_.faces if f.dim == 0]
    edges = [f.half for f in complex_.faces if f.dim == 1]
    return tuple(e for e in edges if sum(not v & ~e for v in vertices) < 2)


def brute_force_sign_vectors(arrangement):
    """Oracle enumeration: the sign vectors whose cells an LP finds nonempty.

    A vector is grown one hyperplane at a time, and only feasible prefixes
    are extended: a cell lies inside the cell of each of its prefixes, so a
    vector with an empty prefix is empty. Independent of the incremental
    path above except for the shared feasibility primitive.
    """
    hyperplanes = arrangement.hyperplanes
    found = [()]
    for _ in hyperplanes:
        found = [s + (c,) for s in found for c in (PLUS, ZERO, MINUS)]
        found = [s for s in found if feasible_interior(list(zip(hyperplanes, s))) is not None]
    return set(found)


@memoized
def closure_faces(complex_, chamber_or_face):
    """All faces F with F <= the given face (its closed cell), in id order."""
    return tuple(f for f in complex_.faces if face_leq(f, chamber_or_face))


def panels(complex_, chamber):
    """Codimension-1 faces of a chamber's closure."""
    if not chamber.is_chamber:
        raise ValueError(f"panels() requires a chamber, got {chamber!r}")
    n = complex_.dimension
    return [
        f
        for f in closure_faces(complex_, chamber)
        if not f.is_chamber and f.dim == n - 1
    ]


def centralization(face):
    """Indices of the hyperplanes containing the face."""
    if face.is_chamber:
        raise ValueError(
            f"centralization is undefined for chambers, got {face!r}"
        )
    return set(face.zero_set())
