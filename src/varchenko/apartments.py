"""Apartments: chambers of sub-arrangements and their face/chamber sets.

An apartment is stored combinatorially as (subset of hyperplane indices,
sign per subset member), and as the mask `half` of its open half-spaces in
the bit layout of `Face.half`. It carries the ids of the faces inside it,
found in one pass over the face complex per subset, with no LP work.
"""

from __future__ import annotations

from .faces import Face, FaceComplex, half_mask, sign_key
from .geometry import MINUS, PLUS


class Apartment:
    """A chamber of the sub-arrangement on `subset`, with the ids of its faces
    in id order: `chamber_ids`, and `face_ids` of the non-chamber faces."""

    __slots__ = ("subset", "base_signs", "half", "chamber_ids", "face_ids")

    def __init__(self, subset, base_signs, chamber_ids, face_ids):
        self.subset = tuple(subset)
        self.base_signs = tuple(base_signs)
        self.half = half_mask(zip(self.subset, self.base_signs))
        self.chamber_ids = tuple(chamber_ids)
        self.face_ids = tuple(face_ids)

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

    One pass groups the faces off the subset's hyperplanes by their `half`
    on the subset. Such a face lies in an open chamber of the sub-arrangement,
    as do the full chambers around it, so each group is one apartment and
    holds a chamber. The empty subset yields the single apartment R^n.
    """
    subset = tuple(sorted(subset))
    m = complex_.arrangement.size
    for h in subset:
        if not 0 <= h < m:
            raise ValueError(f"hyperplane index {h} out of range 0..{m - 1}")
    if len(set(subset)) != len(subset):
        raise ValueError("subset contains repeated indices")

    both = sum(3 << 2 * h for h in subset)
    groups: dict = {}  # mask on the subset -> (chamber ids, non-chamber ids)
    for f in complex_.faces:
        if not f.zero & both:
            chambers, others = groups.setdefault(f.half & both, ([], []))
            (others if f.zero else chambers).append(f.id)
    apartments = [
        Apartment(subset, [MINUS if half >> 2 * h & 2 else PLUS for h in subset], *ids)
        for half, ids in groups.items()
    ]
    return sorted(apartments, key=lambda a: sign_key(a.base_signs))


def find_apartment(complex_: FaceComplex, subset, base_signs):
    """The apartment with these base signs, +1 or -1 per subset member, or None."""
    if len(base_signs) != len(subset) or not all(s in (PLUS, MINUS) for s in base_signs):
        return None
    apartments = enumerate_apartments(complex_, subset)  # checks the subset first
    half = half_mask(zip(subset, base_signs))
    return next((a for a in apartments if a.half == half), None)


def faces_in(complex_: FaceComplex, apartment: Apartment):
    """Faces of the full arrangement contained in the apartment, in id order."""
    return [complex_.faces[i] for i in sorted(apartment.chamber_ids + apartment.face_ids)]


def chambers_in(complex_: FaceComplex, apartment: Apartment):
    """Chambers inside the apartment, in face-id order."""
    return [complex_.faces[i] for i in apartment.chamber_ids]
