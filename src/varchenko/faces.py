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
existing face is split into the feasible members of its three sign
extensions. A brute-force enumerator over all 3^m sign vectors is kept as an
independent oracle for the incremental algorithm.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import (
    MINUS,
    PLUS,
    SIGN_CHARS,
    SIGN_ORDER,
    ZERO,
    _is_bounded_nonempty,
    affine_rank,
    feasible_interior,
    side_of,
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
    witness point."""

    __slots__ = ("signs", "half", "zero", "dim", "witness", "id")

    def __init__(self, signs, dim, witness, face_id):
        self.signs = tuple(signs)
        self.half = half_mask(enumerate(self.signs))
        # bit 2h of `even` for every hyperplane h; a face on H_h has
        # neither of its bits in `half`
        even = ((1 << 2 * len(self.signs)) - 1) // 3
        self.zero = (even & ~(self.half | self.half >> 1)) * 3
        self.dim = dim
        self.witness = tuple(witness)
        self.id = face_id

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
    read-only; small results are memoized internally.
    """

    def __init__(self, arrangement, faces):
        self.arrangement = arrangement
        self.faces = tuple(faces)
        self.by_half = {f.half: f for f in self.faces}
        self.chamber_ids = tuple(f.id for f in self.faces if f.is_chamber)
        self.min_dim = min((f.dim for f in self.faces), default=0)
        self._bounded = {}
        self._closures = {}
        self._products = {}  # face id F -> ids of FG for every face G
        self._traces = {}  # (chamber id, hyperplane) -> trace face or None
        self._chi = {}  # chamber id -> Euler characteristic of its closure
        self._chamber_types = {}  # chamber id -> classify() tag

    @property
    def dimension(self) -> int:
        return self.arrangement.dimension

    def chambers(self):
        return [self.faces[i] for i in self.chamber_ids]

    def face(self, face_id) -> Face:
        return self.faces[face_id]

    def find(self, signs) -> Face | None:
        """The face with this sign vector, or None."""
        signs = tuple(signs)
        if len(signs) != self.arrangement.size:
            return None
        return self.by_half.get(half_mask(enumerate(signs)))

    def constraints_of(self, face: Face):
        """(hyperplane, sign) pairs defining the face."""
        return list(zip(self.arrangement.hyperplanes, face.signs))

    def face_is_bounded(self, face: Face) -> bool:
        cached = self._bounded.get(face.id)
        if cached is None:
            constraints = self.constraints_of(face)
            # An empty arrangement has the single unbounded face R^n; any
            # other face is nonempty by construction, so no feasibility LP.
            cached = bool(constraints) and _is_bounded_nonempty(constraints)
            self._bounded[face.id] = cached
        return cached

    def __repr__(self):
        return (
            f"FaceComplex(n={self.dimension}, m={self.arrangement.size}, "
            f"faces={len(self.faces)}, chambers={len(self.chamber_ids)})"
        )


def face_leq(f: Face, g: Face) -> bool:
    """The face order: every open half-space containing f contains g."""
    return not f.half & ~g.half


def enumerate_faces(arrangement) -> FaceComplex:
    """Build the face poset by inserting hyperplanes one at a time.

    Each partial face F, with a witness w in its relative interior, splits on
    the new hyperplane H into those of F & H+, F & H, F & H- that are
    nonempty, each with a witness of its own. At most one exact LP decides
    the split:

    * w on H: no LP. If H's normal lies in the span of F's zero normals,
      F lies inside H and only the 0 extension exists. Otherwise a direction
      d along F crossing H gives the witnesses w + eps*d and w - eps*d.
    * w off H: one LP for F & H. If it is empty, F stays on w's side.
      Otherwise its point z witnesses 0, and z + eps*(z - w) the far side.

    The step eps is half the shortest one at which a strict constraint of F
    would change sign, so every new witness stays inside F.
    """
    n = arrangement.dimension
    origin = tuple(Fraction(0) for _ in range(n))
    partial = [((), origin)]
    for k, hyper in enumerate(arrangement.hyperplanes):
        prefix = arrangement.hyperplanes[:k]
        grown = []
        for signs, witness in partial:
            constraints = list(zip(prefix, signs))
            for point in _split_witnesses(constraints, witness, hyper):
                grown.append((signs + (side_of(hyper, point),), point))
        partial = grown
    return _build_complex(arrangement, partial)


def _split_witnesses(constraints, witness, hyper):
    """One witness per nonempty piece of the face `constraints` cut by hyper."""
    if hyper.value_at(witness) != 0:
        base = feasible_interior(constraints + [(hyper, ZERO)])
        if base is None:
            return (witness,)
        direction = tuple(z - w for z, w in zip(base, witness))
        eps = _safe_step(constraints, base, direction)
        return (witness, base, _move(base, direction, eps))
    zero_normals = [h.normal for h, s in constraints if s == ZERO]
    direction = transverse_direction(zero_normals, hyper.normal)
    if direction is None:
        return (witness,)
    eps = _safe_step(constraints, witness, direction)
    return (
        witness,
        _move(witness, direction, eps),
        _move(witness, direction, -eps),
    )


def _safe_step(constraints, point, direction):
    """Half the shortest step from point along +-direction that would bring
    a strict constraint to its hyperplane; 1 if none ever does."""
    steps = [
        abs(h.value_at(point) / slope)
        for h, s in constraints
        if s != ZERO
        and (slope := sum(a * d for a, d in zip(h.normal, direction))) != 0
    ]
    return min(steps) / 2 if steps else Fraction(1)


def _move(point, direction, step):
    return tuple(x + step * d for x, d in zip(point, direction))


def brute_force_sign_vectors(arrangement):
    """Oracle enumeration: LP-filter all 3^m sign vectors.

    Returns the set of feasible sign vectors; independent of the incremental
    path above except for the shared feasibility primitive.
    """
    hyperplanes = arrangement.hyperplanes
    found = set()
    stack = [()]
    for _ in range(len(hyperplanes)):
        stack = [s + (c,) for s in stack for c in (PLUS, ZERO, MINUS)]
    for signs in stack:
        if feasible_interior(list(zip(hyperplanes, signs))) is not None:
            found.add(signs)
    if not hyperplanes:
        found.add(())
    return found


def _build_complex(arrangement, signed_witnesses) -> FaceComplex:
    n = arrangement.dimension
    ordered = sorted(signed_witnesses, key=lambda sw: sign_key(sw[0]))
    faces = []
    for face_id, (signs, witness) in enumerate(ordered):
        zero_normals = [
            arrangement.hyperplanes[i].normal
            for i, s in enumerate(signs)
            if s == ZERO
        ]
        dim = n - affine_rank(zero_normals)
        faces.append(Face(signs, dim, witness, face_id))
    return FaceComplex(arrangement, faces)


def closure_faces(complex_, chamber_or_face):
    """All faces F with F <= the given face (its closed cell)."""
    cached = complex_._closures.get(chamber_or_face.id)
    if cached is None:
        cached = tuple(
            f for f in complex_.faces if face_leq(f, chamber_or_face)
        )
        complex_._closures[chamber_or_face.id] = cached
    return list(cached)


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
