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
    """A chamber of the sub-arrangement on `subset`."""

    __slots__ = ("subset", "base_signs", "half")

    def __init__(self, subset, base_signs):
        self.subset = tuple(subset)
        self.base_signs = tuple(base_signs)
        self.half = half_mask(zip(self.subset, self.base_signs))

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

    restricted = {
        tuple(MINUS if c.half >> 2 * h & 2 else PLUS for h in subset)
        for c in complex_.chambers()
    }
    return [Apartment(subset, signs) for signs in sorted(restricted, key=sign_key)]


def find_apartment(complex_: FaceComplex, subset, base_signs):
    """The apartment with these base signs, +1 or -1 per subset member, or None."""
    if len(base_signs) != len(subset) or not all(s in (PLUS, MINUS) for s in base_signs):
        return None
    apartments = enumerate_apartments(complex_, subset)  # checks the subset first
    half = half_mask(zip(subset, base_signs))
    return next((a for a in apartments if a.half == half), None)


def faces_in(complex_: FaceComplex, apartment: Apartment):
    """Faces of the full arrangement contained in the apartment."""
    return [f for f in complex_.faces if not apartment.half & ~f.half]


def chambers_in(complex_: FaceComplex, apartment: Apartment):
    """Chambers inside the apartment, in face-id order."""
    return [f for f in complex_.chambers() if not apartment.half & ~f.half]
