"""Apartments: chambers of sub-arrangements and their face/chamber sets.

An apartment is stored combinatorially as (subset of hyperplane indices,
sign per subset member), and as the mask `half` of its open half-spaces in
the bit layout of `Face.half`. The chambers of a sub-arrangement are exactly
the distinct restrictions of the full arrangement's chambers, so
enumeration needs no additional LP work once the face complex exists.
"""

from __future__ import annotations

from .faces import Face, FaceComplex, half_mask, sign_key
from .geometry import MINUS, PLUS


class Apartment:
    """A chamber of the sub-arrangement on `subset`, with a witness point."""

    __slots__ = ("subset", "base_signs", "half", "id", "witness")

    def __init__(self, subset, base_signs, apartment_id, witness):
        self.subset = tuple(subset)
        self.base_signs = tuple(base_signs)
        self.half = half_mask(zip(self.subset, self.base_signs))
        self.id = apartment_id
        self.witness = witness

    def key(self):
        return (self.subset, sign_key(self.base_signs))

    def matches(self, face: Face) -> bool:
        """Whether the face lies inside this apartment."""
        return not self.half & ~face.half

    def describe(self) -> str:
        if not self.subset:
            return "R^n (empty subset)"
        parts = [
            f"H{h + 1}^{'+' if s > 0 else '-'}"
            for h, s in zip(self.subset, self.base_signs)
        ]
        return " ".join(parts)

    def __repr__(self):
        return f"Apartment({self.describe()})"


def enumerate_apartments(complex_: FaceComplex, subset):
    """All apartments of the given hyperplane subset, in deterministic order.

    Every chamber of the sub-arrangement contains a chamber of the full
    arrangement, so the restrictions of the full chambers cover them all.
    The empty subset yields the single apartment R^n.
    """
    subset = tuple(sorted(subset))
    m = complex_.arrangement.size
    for h in subset:
        if not 0 <= h < m:
            raise ValueError(f"hyperplane index {h} out of range 0..{m - 1}")
    if len(set(subset)) != len(subset):
        raise ValueError("subset contains repeated indices")

    seen = {}
    for chamber in complex_.chambers():
        half = chamber.half
        restricted = tuple(MINUS if half >> 2 * h & 2 else PLUS for h in subset)
        seen.setdefault(restricted, chamber.witness)
    return [
        Apartment(subset, signs, i, seen[signs])
        for i, signs in enumerate(sorted(seen, key=sign_key))
    ]


def find_apartment(complex_: FaceComplex, subset, base_signs):
    """The apartment with the given base signs, or None if infeasible."""
    half = half_mask(zip(subset, base_signs))
    return next(
        (a for a in enumerate_apartments(complex_, subset) if a.half == half),
        None,
    )


def faces_in(complex_: FaceComplex, apartment: Apartment):
    """Faces of the full arrangement contained in the apartment."""
    return [f for f in complex_.faces if apartment.matches(f)]


def chambers_in(complex_: FaceComplex, apartment: Apartment):
    """Chambers inside the apartment, in face-id order."""
    return [f for f in complex_.chambers() if apartment.matches(f)]


def touching_hyperplanes(complex_: FaceComplex, apartment: Apartment):
    """Hyperplanes whose intersection with the apartment's closure has
    dimension n-1: those crossing the open apartment, plus subset members
    carrying a facet of it. Decided exactly by LP."""
    from .geometry import ZERO, feasible_interior

    arrangement = complex_.arrangement
    base = dict(zip(apartment.subset, apartment.base_signs))
    touching = set()
    for h in range(arrangement.size):
        constraints = [(arrangement.hyperplanes[h], ZERO)]
        for k, sign in base.items():
            if k != h:
                constraints.append((arrangement.hyperplanes[k], sign))
        if feasible_interior(constraints) is not None:
            touching.add(h)
    return touching


def central_apartment_around(complex_: FaceComplex, face: Face) -> Apartment:
    """The apartment cut out by the hyperplanes *not* containing the face.

    Its restriction arrangement is central with center the face: every
    hyperplane meeting the apartment contains the face.
    """
    if face.is_chamber:
        raise ValueError(
            "central apartments exist only around non-chamber faces"
        )
    zero = face.zero_set()
    subset = [h for h in range(complex_.arrangement.size) if h not in zero]
    # the open half-spaces containing the face are exactly the apartment's
    for apartment in enumerate_apartments(complex_, subset):
        if apartment.half == face.half:
            return apartment
    raise RuntimeError("central apartment unexpectedly infeasible")
