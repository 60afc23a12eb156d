"""Combinatorial Euler characteristics of chamber closures and the chamber
type classification (bounded / three kinds of unbounded frontier).

Classification is exact for n <= 2 (boundedness plus frontier component
counting). For n >= 3 it falls back to the Euler characteristic and stays
conservative: a chamber whose characteristic matches no type, or more than
one, is tagged `unknown` and downstream checks skip it.
"""

from __future__ import annotations

from .faces import Face, FaceComplex, closure_faces, face_leq, memoized, panels
from .report import FAIL, PASS, CheckResult

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


def _frontier_components(complex_: FaceComplex, chamber: Face):
    """Connected components of the frontier, glued along comparability."""
    frontier = [
        f for f in closure_faces(complex_, chamber) if f.id != chamber.id
    ]
    parent = {f.id: f.id for f in frontier}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in frontier:
        for g in frontier:
            if f.id < g.id and (face_leq(f, g) or face_leq(g, f)):
                parent[find(f.id)] = find(g.id)

    groups: dict = {}
    for f in frontier:
        groups.setdefault(find(f.id), []).append(f)
    return list(groups.values())


@memoized
def classify(complex_: FaceComplex, chamber: Face) -> str:
    """Chamber type tag: bounded, type1, type2, type3 or unknown."""
    if not chamber.is_chamber:
        raise ValueError(f"classify requires a chamber, got {chamber!r}")
    if complex_.face_is_bounded(chamber):
        return BOUNDED
    n = complex_.dimension
    components = _frontier_components(complex_, chamber)
    if not components:
        return UNKNOWN  # frontier empty: the single chamber R^n

    if n <= 2:
        if len(components) == 1:
            return TYPE1
        if len(components) == 2:
            full_walls = all(
                len(comp) == 1 and comp[0].dim == n - 1
                for comp in components
            )
            # Two full walls are whole lines with no vertex on them, so they
            # are parallel: crossing lines would split each other.
            return TYPE3 if full_walls else TYPE2
        return UNKNOWN

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


def euler_closure_minus_panels(complex_: FaceComplex, chamber: Face, panel_subset) -> int:
    """Alternating cell count of the closed chamber minus closed panels.

    The subset must be a nonempty proper subset of the chamber's panels;
    when it has more than one member, every panel must share a
    codimension-2 face with another member.
    """
    if not chamber.is_chamber:
        raise ValueError(f"requires a chamber, got {chamber!r}")
    subset = list(panel_subset)
    masks = _PanelMasks(complex_, chamber)
    position = {f.id: i for i, f in enumerate(masks.panels)}
    if not subset:
        raise ValueError("panel subset must be nonempty")
    if any(f.id not in position for f in subset):
        raise ValueError("subset contains a non-panel of the chamber")
    mask = sum(1 << i for i in {position[f.id] for f in subset})
    if mask == (1 << len(position)) - 1:
        raise ValueError("subset must be a proper subset of the panels")
    if len(subset) > 1 and not masks.adjacent_within(mask):
        raise ValueError(
            "each panel must share a codimension-2 face with another"
        )
    return masks.chi_minus(mask)


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
    if failures:
        details["failures"] = failures
    return CheckResult("lemma_chi_closure", FAIL if failures else PASS, {}, details)


def lemma_chm_check(complex_: FaceComplex) -> CheckResult:
    """chi of chamber-minus-panels matches the two-case prediction:
    -1 for a type-1 chamber with bounded panel union, 0 otherwise.

    The panel subsets of a chamber are the bitmasks over its panels in id
    order, taken in increasing order; each is read off the chamber's
    `_PanelMasks` with a few int operations.
    """
    failures = []
    skipped = []
    checked = 0
    for chamber in complex_.chambers():
        tag = classify(complex_, chamber)
        if tag == UNKNOWN:
            skipped.append(chamber.id)
            continue
        masks = _PanelMasks(complex_, chamber)
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
    if failures:
        details["failures"] = failures
    return CheckResult("lemma_chi_minus_panels", FAIL if failures else PASS, {}, details)
