"""Combinatorial Euler characteristics of chamber closures and the chamber
type classification (bounded / three kinds of unbounded frontier).

Classification is exact for n <= 2: boundedness, then the connected
components of the chamber's panels glued along shared (n-2)-faces, read
off the same panel masks that `lemma_chm` uses. For n >= 3 it falls back
to the Euler characteristic and stays conservative: a chamber whose
characteristic matches no type, or more than one, is tagged `unknown` and
downstream checks skip it.
"""

from __future__ import annotations

from .faces import Face, FaceComplex, closure_faces, face_leq, memoized, panels
from .report import CheckResult, verdict

BOUNDED = "bounded"
TYPE1 = "type1"
TYPE2 = "type2"
TYPE3 = "type3"
UNKNOWN = "unknown"


@memoized
def euler_closure(complex_: FaceComplex, chamber: Face) -> int:
    """Alternating cell count of the closed chamber: sum (-1)^dim over F <= D."""
    if not chamber.is_chamber:
        raise ValueError(f"euler_closure requires a chamber, got {chamber!r}")
    return sum(-1 if f.dim % 2 else 1 for f in closure_faces(complex_, chamber))


@memoized
def classify(complex_: FaceComplex, chamber: Face) -> str:
    """Chamber type tag: bounded, type1, type2, type3 or unknown."""
    if not chamber.is_chamber:
        raise ValueError(f"classify requires a chamber, got {chamber!r}")
    if complex_.face_is_bounded(chamber):
        return BOUNDED
    n = complex_.dimension
    if closure_faces(complex_, chamber) == (chamber,):
        return UNKNOWN  # frontier empty: the single chamber R^n

    if n <= 2:
        # Every frontier face lies below a panel, so the frontier's
        # components are those of the panels glued along (n-2)-faces.
        masks = _panel_masks(complex_, chamber)
        components = masks.components()
        if components == 2:
            # Two panels with no (n-2)-face are whole lines, so they are
            # parallel: crossing lines would split each other.
            return TYPE3
        return TYPE1 if components == 1 else UNKNOWN

    chi = euler_closure(complex_, chamber)
    if chi == 0:
        return TYPE1
    if n % 2 == 1:
        if chi == -1:
            return TYPE2
        if chi == 1:
            return TYPE3
    # n even: type 2 and type 3 share chi = -1, so stay conservative.
    return UNKNOWN


class _PanelMasks:
    """A chamber's panels, in id order, with its closure read as bitmasks
    over them: bit i of a face's mask is set when the face lies below
    panel i.

    `chi` holds, for each such mask, the alternating count (-1)^dim of the
    closure faces that have it, and `adjacent[i]` the mask of the other
    panels that share a closure face of dimension n - 2 with panel i. Any
    face below a panel of the chamber lies in its closure, so these are
    all the faces the lemma reads.
    """

    __slots__ = ("panels", "chi", "adjacent")

    def __init__(self, complex_: FaceComplex, chamber: Face):
        n = complex_.dimension
        self.panels = panels(complex_, chamber)
        self.chi = {}
        self.adjacent = [0] * len(self.panels)
        for g in closure_faces(complex_, chamber):
            below = 0
            for i, f in enumerate(self.panels):
                if face_leq(g, f):
                    below |= 1 << i
            self.chi[below] = self.chi.get(below, 0) + (-1 if g.dim % 2 else 1)
            if g.dim == n - 2:
                for i in range(len(self.panels)):
                    if below >> i & 1:
                        self.adjacent[i] |= below & ~(1 << i)

    def adjacent_within(self, mask: int) -> bool:
        """Whether every panel of mask shares a codimension-2 face with
        another panel of mask."""
        return all(
            self.adjacent[i] & mask
            for i in range(len(self.panels))
            if mask >> i & 1
        )

    def chi_minus(self, mask: int) -> int:
        """Alternating count of the closure faces below no panel of mask."""
        return sum(count for below, count in self.chi.items() if not below & mask)

    def components(self) -> int:
        """Connected components of the panels under `adjacent`."""
        count, unseen = 0, (1 << len(self.panels)) - 1
        while unseen:
            count += 1
            reached = unseen & -unseen
            while reached:
                unseen &= ~reached
                grown = 0
                for i in range(len(self.panels)):
                    if reached >> i & 1:
                        grown |= self.adjacent[i]
                reached = grown & unseen
        return count


@memoized
def _panel_masks(complex_: FaceComplex, chamber: Face) -> _PanelMasks:
    """The chamber's `_PanelMasks`, read once per complex."""
    return _PanelMasks(complex_, chamber)


_CHI_TABLE = {BOUNDED: lambda n: 1, TYPE1: lambda n: 0, TYPE2: lambda n: -1,
              TYPE3: lambda n: -1 if (n - 1) % 2 else 1}


def lemma_ch_check(complex_: FaceComplex) -> CheckResult:
    """chi of every classified chamber closure matches its type's value."""
    n = complex_.dimension
    failures = []
    skipped = []
    checked = 0
    for chamber in complex_.chambers():
        tag = classify(complex_, chamber)
        if tag == UNKNOWN:
            skipped.append(chamber.id)
            continue
        checked += 1
        expected = _CHI_TABLE[tag](n)
        actual = euler_closure(complex_, chamber)
        if actual != expected:
            failures.append(
                {"chamber": chamber.id, "type": tag,
                 "chi": actual, "expected": expected}
            )
    details = {"checked": checked, "skipped": skipped}
    return verdict("lemma_chi_closure", details, failures=failures)


def lemma_chm_check(complex_: FaceComplex) -> CheckResult:
    """chi of chamber-minus-panels matches the two-case prediction:
    -1 for a type-1 chamber with bounded panel union, 0 otherwise.

    The panel subsets of a chamber are the bitmasks over its panels in id
    order, taken in increasing order; each is read off the chamber's
    memoized `_panel_masks` with a few int operations.
    """
    failures = []
    skipped = []
    checked = 0
    for chamber in complex_.chambers():
        tag = classify(complex_, chamber)
        if tag == UNKNOWN:
            skipped.append(chamber.id)
            continue
        masks = _panel_masks(complex_, chamber)
        unbounded = sum(
            1 << i
            for i, f in enumerate(masks.panels)
            if not complex_.face_is_bounded(f)
        )
        for mask in range(1, (1 << len(masks.panels)) - 1):
            if mask & (mask - 1) and not masks.adjacent_within(mask):
                continue
            checked += 1
            expected = -1 if (tag == TYPE1 and not mask & unbounded) else 0
            actual = masks.chi_minus(mask)
            if actual != expected:
                failures.append(
                    {
                        "chamber": chamber.id,
                        "panels": [
                            f.id
                            for i, f in enumerate(masks.panels)
                            if mask >> i & 1
                        ],
                        "chi": actual,
                        "expected": expected,
                    }
                )
    details = {"checked": checked, "skipped": skipped}
    return verdict("lemma_chi_minus_panels", details, failures=failures)
