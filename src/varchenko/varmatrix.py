"""The distance function v, Varchenko matrices, determinants and the
factorization theorem machinery (multiplicities, product formula, checks).

Matrix convention: entry at (row C, column D) is v(D, C), the monomial of
the half-spaces containing D but not C. Rows and columns always use the
same chamber order, so the determinant does not depend on that order.

A distance is a square-free monomial with coefficient 1, so `v` and every
matrix entry are the half-space mask (`Face.half` bits) of that monomial.
The identity checks compare masks, the determinant spreads each mask into
a packed key, and each face weight is a `polyring` monomial (an expected
product read from text may hold weights that are not square-free).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from functools import reduce
from math import comb, prod
from operator import or_
from typing import NamedTuple

from .faces import Face, FaceComplex, centralization, closure_faces, memoized
from .polyring import (
    Polynomial,
    format_monomial,
    format_polynomial,
    format_terms,
    lex_key,
    mask_monomial,
    set_bits,
)
from .report import FAIL, PASS, CheckResult, verdict
from .tits import _product_row, chamber_products, opposite_through
from .witt import witt_sums

DEFAULT_PRIME = 2**61 - 1
DEFAULT_SYMBOLIC_THRESHOLD = 12


def v(c: Face, d: Face) -> int:
    """Aguiar-Mahajan distance of chambers: the mask c.half & ~d.half of
    the open half-spaces containing c but not d, standing for the product
    of their variables (0, the monomial 1, on the diagonal).

    Every distance is square-free with coefficient 1, so for chambers C, X,
    D the product v(C, X) v(X, D) equals v(C, D) exactly when the masks of
    v(C, X) and v(X, D) are disjoint and their OR is the mask of v(C, D).
    The two masks are always disjoint: a half-space in both would contain
    X and not contain X. So the identity checks compare the OR alone.
    """
    for face in (c, d):
        if not face.is_chamber:
            raise ValueError(f"v requires chambers, got {face!r}")
    return c.half & ~d.half


class VMatrix:
    """Square matrix (v(D, C))_{C row, D column} over an ordered chamber
    list. Each entry is the int mask of a square-free monomial with
    coefficient 1, bit `VarId.index` for each of its `nvars` variables."""

    __slots__ = ("chamber_ids", "entries", "nvars")

    def __init__(self, chamber_ids, entries, nvars):
        self.chamber_ids = tuple(chamber_ids)
        self.entries = entries
        self.nvars = nvars

    @property
    def size(self) -> int:
        return len(self.entries)

    def validate(self):
        """Check the defining invariants, realizability included: some
        chamber masks give every entry as a distance. Raises ValueError
        when violated. It takes O(N^2) operations on masks of m hyperplanes."""
        n = self.size
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix is not square")
        plus = ((1 << self.nvars + self.nvars % 2) - 1) // 3  # bits 0, 2, 4, ...
        for i, row in enumerate(self.entries):
            if row[i]:
                raise ValueError(f"diagonal entry ({i},{i}) is not 1")
            for j, mask in enumerate(row):
                if mask & mask >> 1 & plus:
                    raise ValueError(
                        f"entry ({i},{j}) holds both half-space variables "
                        "of one hyperplane"
                    )
                if self.entries[j][i] != (mask & plus) << 1 | (mask >> 1 & plus):
                    raise ValueError(
                        f"entries ({i},{j}) and ({j},{i}) do not use "
                        "opposite half-space variables"
                    )
        # Chamber c lies on the side of chamber 0 except across the
        # hyperplanes of v(c, 0), where it lies on the side v(0, c) names.
        first = self.entries[0]
        side0 = reduce(or_, (row[0] for row in self.entries))
        sides = [side0 & ~row[0] | first[c] for c, row in enumerate(self.entries)]
        for r, row in enumerate(self.entries):
            for c, mask in enumerate(row):
                if mask != sides[c] & ~sides[r]:
                    raise ValueError(
                        f"entry ({r},{c}) is not the distance of chambers "
                        f"{c} and {r} on the sides that row 0 gives them"
                    )

    def entry_texts(self):
        """The entries in the canonical polynomial text form, row by row."""
        return [
            [format_monomial(mask_monomial(e)) for e in row] for row in self.entries
        ]


def varchenko_matrix(chambers) -> VMatrix:
    """Distance matrix of an ordered chamber list (full C_A or some C_A^K)."""
    chambers = list(chambers)
    if not chambers:
        raise ValueError("need at least one chamber")
    nvars = 2 * len(chambers[0].signs)
    entries = [[v(d, c) for d in chambers] for c in chambers]
    return VMatrix([c.id for c in chambers], entries, nvars)


# -- determinants -----------------------------------------------------------


class Packing(NamedTuple):
    """Monomials packed into ints, `width` bits per variable: the exponent
    of variable i sits at bit i * width. While no exponent reaches
    2**width, fields never carry, so multiplying two monomials is one int
    addition and two packed polynomials are equal exactly when the
    polynomials are."""

    nvars: int
    width: int

    @classmethod
    def covering(cls, nvars: int, *bounds) -> "Packing":
        """The narrowest packing that holds every exponent bound given."""
        top = max((max(bound, default=0) for bound in bounds), default=0)
        return cls(nvars, max(1, top.bit_length()))

    def spread(self, mask: int) -> int:
        """The key of the square-free monomial of a variable mask."""
        w = self.width
        return sum(1 << i * w for i in set_bits(mask))

    def key(self, mono) -> int:
        """The key of a monomial."""
        w = self.width
        return sum(e << i * w for i, e in mono)

    def terms(self, packed):
        """[(coefficient, monomial)] of a {key: coefficient} dict, reading
        each key field by field up to its highest nonzero one."""
        w, f = self.width, (1 << self.width) - 1
        return [
            (coef, tuple((s // w, e) for s in range(0, k.bit_length(), w) if (e := k >> s & f)))
            for k, coef in packed.items()
        ]

    def polynomial(self, packed) -> Polynomial:
        """The Polynomial of a {key: coefficient} dict."""
        return Polynomial(self.nvars, {m: c for c, m in self.terms(packed)})


def _row_supports(rows):
    """Per row, the mask of the variables that occur in the row; an entry
    of None is zero."""
    return [reduce(or_, (e for e in row if e is not None), 0) for row in rows]


def shared_packing(matrix: VMatrix, factored=None) -> Packing:
    """The packing that covers every minor of `matrix` and, when given, the
    expansion of the `FactoredDet`; in it the two compare equal exactly
    when the polynomials do. No minor has a larger exponent of a variable
    than the number of rows the variable occurs in."""
    supports = _row_supports(matrix.entries)
    occurring = set_bits(reduce(or_, supports, 0))
    bounds = [[sum(s >> k & 1 for s in supports) for k in occurring]]
    if factored is not None:
        bounds.append(factored.bounds())
    return Packing.covering(matrix.nvars, *bounds)


def frontier_order(rows):
    """Row order for the minor expansion: each next row is the one whose
    nonzero (not None) columns, joined with those of the rows already
    taken, make the smallest set; ties go to fewer nonzero entries, then
    to the lower row index."""
    columns = [sum(1 << c for c, e in enumerate(row) if e is not None) for row in rows]
    order, taken, left = [], 0, set(range(len(rows)))
    while left:
        r = min(left, key=lambda r: ((taken | columns[r]).bit_count(),
                                     columns[r].bit_count(), r))
        order.append(r)
        left.remove(r)
        taken |= columns[r]
    return order


def _reduced_row(row, pivot, x: int, x_bar: int):
    """(row - x * pivot) / (1 - x x_bar) as masks, None standing for zero,
    or None when some column leaves a remainder: each column must be zero
    in both rows, or e = p | x with x not in p (the new entry is zero), or
    p = e | x_bar with x_bar not in e (the new entry is e)."""
    new = []
    for e, p in zip(row, pivot):
        if e is None or p is None:
            if e is not p:
                return None
            new.append(None)
        elif e == p | x and not p & x:
            new.append(None)
        elif p == e | x_bar and not e & x_bar:
            new.append(e)
        else:
            return None
    return new


def reduce_rows(matrix: VMatrix):
    """(rows, counts): the matrix after row operations that each divide one
    factor (1 - h^+ h^-) out of the determinant, and {h: factors divided
    out} over the hyperplanes h that gave one; see `det_symbolic`. Only
    hyperplanes whose h^+ occurs are tried: no row operation adds one."""
    rows = [list(row) for row in matrix.entries]
    counts: dict = {}
    plus = ((1 << matrix.nvars - matrix.nvars % 2) - 1) // 3  # h^+ of each whole pair
    for k in set_bits(reduce(or_, _row_supports(rows), 0) & plus):
        x = 1 << k
        for i, row in enumerate(rows):
            j = next((c for c, e in enumerate(row) if e == x and c != i), None)
            if j is not None:
                new = _reduced_row(row, rows[j], x, x << 1)
                if new is not None:
                    rows[i] = new
                    counts[k // 2] = counts.get(k // 2, 0) + 1
    return rows, counts


def _times_factor_power(packed, key: int, exponent: int):
    """packed * (1 - x)^k for the monomial x of `key`, as a {key:
    coefficient} dict; (1 - x)^k expands as sum_j C(k, j) (-1)^j x^j."""
    powers = [(j * key, comb(exponent, j) * (-1) ** j) for j in range(exponent + 1)]
    nxt: dict = {}
    get = nxt.get
    for r_key, r_coef in packed.items():
        for p_key, p_coef in powers:
            p_key += r_key
            nxt[p_key] = get(p_key, 0) + r_coef * p_coef
    return {k: c for k, c in nxt.items() if c}


def expand_rows(rows, packing: Packing):
    """The determinant of mask rows, None for zero, as a {key: coefficient}
    dict in `packing`; see `det_symbolic`."""
    order = frontier_order(rows)
    keys = [
        [
            (j, packing.spread(rows[r][c]))
            for j, c in enumerate(order)
            if rows[r][c] is not None
        ]
        for r in order
    ]

    level = {0: {0: 1}}
    for r, row in enumerate(keys):
        nxt: dict = {}
        for mask, minor in level.items():
            items = minor.items()
            for j, e_key in row:
                bit = 1 << j
                if mask & bit:
                    continue
                acc = nxt.setdefault(mask | bit, {})
                get = acc.get
                if (r + (mask & (bit - 1)).bit_count()) % 2:
                    for key, coef in items:
                        key += e_key
                        acc[key] = get(key, 0) - coef
                else:
                    for key, coef in items:
                        key += e_key
                        acc[key] = get(key, 0) + coef
        level = {}
        for mask, acc in nxt.items():
            kept = {key: coef for key, coef in acc.items() if coef}
            if kept:
                level[mask] = kept
    return level.get((1 << len(keys)) - 1, {})


def _times_pulled_out(det, counts, packing: Packing):
    """det times (1 - h^+ h^-)^k for each {h: k} of `counts`."""
    for h, k in counts.items():
        det = _times_factor_power(det, packing.spread(3 << 2 * h), k)
    return det


def det_packed(matrix: VMatrix, packing: Packing):
    """The determinant as a {key: coefficient} dict in `packing`, which must
    cover the `shared_packing` of the matrix; see `det_symbolic`."""
    rows, counts = reduce_rows(matrix)
    return _times_pulled_out(expand_rows(rows, packing), counts, packing)


def det_symbolic(matrix: VMatrix) -> Polynomial:
    """Exact determinant over Z[h]: row operations that pull out factors
    (1 - h^+ h^-), then a row-by-row cofactor expansion memoized on column
    subsets.

    Row operations (Aguiar-Mahajan). Let x = h^+, x' = h^-, and let row i
    hold the entry x alone at column j != i: on a Varchenko matrix, H_h
    alone separates the chambers C of row i and D of row j. Replacing row
    i by row_i - x row_j multiplies V on the left by a unimodular matrix
    (the identity with -x at (i, j), determinant 1), so det V is kept. The
    new row is zero at each column E on D's side of H_h, where v(E, C) =
    x v(E, D), and (1 - x x') v(E, C) on C's side, where v(E, D) =
    x' v(E, C). So det V = (1 - x x') det V', where row i of V' keeps its
    entries on C's side and is zero elsewhere. `reduce_rows` does this for
    each hyperplane and each row in turn, checking every column on the
    current rows, so it is valid for any mask matrix; a row where some
    column fails is left as it is. `det_packed` multiplies the pulled-out
    factors back into det V'; `compare_with_product` compares det V' itself.

    Expansion. Level r holds the minors of the first r rows on every
    r-subset of columns, keyed by column bitmask. Adding row r to the
    subset T at column j contributes sign (-1)^(r + index of j in T), and
    zero entries contribute nothing. A minor is only ever multiplied by an
    entry, which keeps intermediate growth far below fraction-free
    elimination on these matrices.

    The expansion runs on P V' P^T for the permutation P of
    `frontier_order`, which has the same determinant. Its cost grows with
    the column subsets a level reaches, and every subset of level r lies
    in the union of the nonzero columns of the first r rows, so the order
    takes next the row that keeps that union smallest.

    Monomials are packed into ints by `shared_packing`, so fields never
    carry and multiplying two monomials is one int addition. The packing
    of V covers the minors of V', whose entries are entries of V or zero,
    and each partial product of det V' with the pulled-out factors: over
    the domain Z[h] the exponent of a variable in a product is the sum of
    those in its factors, so none exceeds its exponent in det V.
    """
    packing = shared_packing(matrix)
    return packing.polynomial(det_packed(matrix, packing))


class ModularTrial(NamedTuple):
    """One modular trial: its index, the digest of its assignment, det V
    there and, when a product was given, the product there."""

    trial: int
    digest: str
    value: int
    product: int | None = None

    @property
    def match(self) -> bool:
        return self.value == self.product


def modular_assignment(nvars: int, seed, trial: int, prime: int):
    """Deterministic uniform values in [0, prime) of the ring variables, a
    list indexed by variable."""
    rng = random.Random(f"{seed}:{trial}")
    return [rng.randrange(prime) for _ in range(nvars)]


def assignment_digest(values, prime: int) -> str:
    """Digest of an assignment, listing each hyperplane's h^- before its h^+
    (variable i at place i ^ 1)."""
    payload = ",".join(
        f"{i // 2}{'-' if i & 1 else '+'}={values[i]}"
        for i in sorted(range(len(values)), key=lambda i: i ^ 1)
    )
    return hashlib.sha256(f"{prime};{payload}".encode()).hexdigest()[:16]


def _evaluator(matrix: VMatrix, prime: int):
    """det V mod prime as a function of the values of the variables in
    [0, prime), planned once. A call fills a table (0 for None, 1 for mask
    0, each of `masks` from the mask less its lowest bit) and reads the
    `reduce_rows` residual through it."""
    rows, counts = reduce_rows(matrix)
    masks = sorted({e >> k << k for row in rows for e in row if e
                    for k in range(e.bit_length())})
    steps = [(mask, mask & mask - 1, (mask & -mask).bit_length() - 1) for mask in masks]

    def det(values) -> int:
        table = {None: 0, 0: 1}
        for mask, parent, var in steps:
            table[mask] = table[parent] * values[var] % prime
        value = _det_mod([list(map(table.__getitem__, row)) for row in rows], prime)
        for h, k in counts.items():
            value = value * pow(1 - values[2 * h] * values[2 * h + 1], k, prime) % prime
        return value

    return det


def det_at(matrix: VMatrix, values, prime: int) -> int:
    """Determinant of the matrix mod prime at the values of its variables,
    through the `_evaluator` plan of the `reduce_rows` residual."""
    return _evaluator(matrix, prime)(values)


def det_modular(matrix: VMatrix, seed=0, trials: int = 10, product=None):
    """One `ModularTrial` per trial, in trial order: det V at a random
    assignment mod DEFAULT_PRIME, deterministic from (seed, trial index),
    and there also the `FactoredDet` `product` when one is given. One
    `_evaluator` serves every trial."""
    if trials < 1:
        raise ValueError("need at least one trial")
    det = _evaluator(matrix, DEFAULT_PRIME)
    drawn = (modular_assignment(matrix.nvars, seed, t, DEFAULT_PRIME) for t in range(trials))
    return [
        ModularTrial(t, assignment_digest(values, DEFAULT_PRIME), det(values),
                     None if product is None else product.eval_mod(values, DEFAULT_PRIME))
        for t, values in enumerate(drawn)
    ]


def _det_mod(rows, prime: int) -> int:
    """Determinant mod prime of a square matrix of ints in [0, prime), by
    elimination on the columns right of each pivot only (the rows shrink).
    The pivot row's tail is reduced once; any other row gets a - f * b with
    f, b < prime unreduced, so each |entry| < prime + n * prime^2 and may be
    a nonzero multiple of prime: a pivot is an entry nonzero mod prime."""
    det = 1
    while rows:
        k = next((i for i, row in enumerate(rows) if row[0] % prime), None)
        if k is None:
            return 0
        head = rows.pop(k)  # moved up past k rows, hence (-1) ** k
        pivot = head[0] % prime
        det = det * (-1) ** k * pivot % prime
        inv = pow(pivot, -1, prime)
        tail = [b % prime for b in head[1:]]
        rows = [[a - f * b for a, b in zip(row[1:], tail)] if (f := row[0] * inv % prime)
                else row[1:] for row in rows]
    return det % prime


# -- multiplicities and the product formula ---------------------------------


@memoized
def _chamber_trace(complex_: FaceComplex, chamber: Face, h: int):
    """The face F with closure(chamber) meet H_h = closure(F), or None.

    F is the largest closure face on H_h, so its mask is the union of theirs;
    None when no closure face lies on H_h or that union is not a face.
    """
    on_h = [g.half for g in closure_faces(complex_, chamber) if g.zero >> 2 * h & 1]
    return complex_.by_half.get(reduce(or_, on_h)) if on_h else None


def _trace_counts(complex_: FaceComplex, chambers, hyperplanes):
    """Per (face, h), the number of chambers whose closure meets H_h in the face."""
    return Counter((_chamber_trace(complex_, c, h), h) for c in chambers for h in hyperplanes)


def _halved(counts, face: Face, h: int) -> int:
    count = counts[face, h]
    if count % 2:
        raise RuntimeError(f"odd chamber count {count} for face {face.id} on H{h + 1}; "
                           "multiplicity must be an integer")
    return count // 2


def multiplicity(complex_: FaceComplex, face: Face, h: int, chambers) -> int:
    """Half the number of context chambers whose closure meets H_h in the face."""
    if face.is_chamber:
        raise ValueError(f"multiplicity requires a non-chamber face, got {face!r}")
    if h not in centralization(face):
        raise ValueError(
            f"hyperplane H{h + 1} does not contain face {face.id}"
        )
    return _halved(_trace_counts(complex_, chambers, (h,)), face, h)


def beta_independence(complex_: FaceComplex, non_chamber_faces, chambers):
    """Multiplicities per face, plus any dependence on the chosen hyperplane.

    Returns (betas, mismatches) where betas maps face id to the least value
    and mismatches lists faces whose per-hyperplane values differ.
    """
    on = {face: sorted(centralization(face)) for face in non_chamber_faces}
    counts = _trace_counts(complex_, chambers, set().union(*on.values()))
    betas = {}
    mismatches = []
    for face, hyperplanes in on.items():
        values = {h: _halved(counts, face, h) for h in hyperplanes}
        if len(set(values.values())) != 1:
            mismatches.append({"face": face.id, "per_hyperplane": values})
        betas[face.id] = min(values.values())
    return betas, mismatches


class FactoredDet:
    """The product prod (1 - b_F)^{beta_F} in factored form, as `factors`
    {weight monomial: total exponent}: each weight b_F a nonconstant
    monomial with coefficient 1, equal weights merged, zero exponents
    dropped, in the order of `text()`."""

    __slots__ = ("nvars", "factors")

    def __init__(self, nvars, factors):
        """`factors`: (weight monomial, exponent) pairs."""
        totals: dict = {}
        for mono, exponent in factors:
            if exponent:
                totals[mono] = totals.get(mono, 0) + exponent
        self.nvars = nvars
        # by the first variable of the weight, then by the weight
        self.factors = dict(
            sorted(totals.items(), key=lambda item: (item[0][0][0], lex_key(item[0])))
        )

    def bounds(self):
        """Per occurring variable, the sum over factors of exponent times
        the weight's exponent. These are the exponents of the product's top
        term, so no term exceeds them and their sum is the degree."""
        bounds: dict = {}
        for mono, exponent in self.factors.items():
            for i, e in mono:
                bounds[i] = bounds.get(i, 0) + exponent * e
        return list(bounds.values())

    def packed(self, packing: Packing):
        """The expanded product as a {key: coefficient} dict in `packing`,
        which must cover `bounds()`."""
        result = {0: 1}
        for mono, exponent in self.factors.items():
            result = _times_factor_power(result, packing.key(mono), exponent)
        return result

    def divided(self, counts):
        """The product over (1 - h^+ h^-)^k for each {h: k} of `counts`, or
        None when some k exceeds the product's exponent of h^+ h^-."""
        factors = dict(self.factors)
        for h, k in counts.items():
            weight = ((2 * h, 1), (2 * h + 1, 1))
            if factors.get(weight, 0) < k:
                return None
            factors[weight] -= k
        return FactoredDet(self.nvars, factors.items())

    def expand(self) -> Polynomial:
        packing = Packing.covering(self.nvars, self.bounds())
        return packing.polynomial(self.packed(packing))

    def eval_mod(self, values, prime: int) -> int:
        """The product mod prime at the values of the variables in [0, prime)."""
        value = 1
        for mono, exponent in self.factors.items():
            b = prod(pow(values[i], e, prime) for i, e in mono)
            value = value * pow((1 - b) % prime, exponent, prime) % prime
        return value

    def text(self) -> str:
        pieces = [
            f"(1 - {format_monomial(mono)})^{exponent}"
            for mono, exponent in self.factors.items()
        ]
        return " ".join(pieces) if pieces else "1"


def product_formula(complex_: FaceComplex, non_chamber_faces, betas) -> FactoredDet:
    """Assemble the factored determinant from faces and their multiplicities."""
    return FactoredDet(
        2 * complex_.arrangement.size,
        [(mask_monomial(face.zero), betas[face.id]) for face in non_chamber_faces],
    )


def resolve_apartment(complex_: FaceComplex, apartment):
    """(description, (chamber ids, non-chamber face ids)) of an apartment;
    None, the full arrangement, has the ids of the empty subset."""
    if apartment is None:
        others = tuple(f.id for f in complex_.faces if f.zero)
        return "full arrangement", (complex_.chamber_ids, others)
    return apartment.describe(), (apartment.chamber_ids, apartment.face_ids)


@memoized
def beta_details(complex_: FaceComplex, chamber_ids, face_ids):
    """The (status, details) of `beta_independence_check` on the apartment of
    these chamber and non-chamber face ids ("betas": each face's least value)."""
    chambers, non_chambers = ([complex_.faces[i] for i in ids] for ids in (chamber_ids, face_ids))
    betas, mismatches = beta_independence(complex_, non_chambers, chambers)
    details = {"faces_checked": len(non_chambers), "betas": betas}
    if mismatches:
        details["mismatches"] = mismatches
    return FAIL if mismatches else PASS, details


def compare_with_product(matrix: VMatrix, factored: FactoredDet, mode, seed, trials):
    """The determinant of `matrix` beside the product formula, by one route.

    `mode` "auto" takes the symbolic route up to DEFAULT_SYMBOLIC_THRESHOLD
    chambers and the modular one beyond. Returns (mode, equal, evidence),
    `equal` the verdict of either route. For "symbolic", `evidence` is a
    function returning the text of det V, built only where it is printed.
    For "modular" it is the `det_modular` trials, each holding det V and
    the product at the trial's assignment mod DEFAULT_PRIME; they are equal
    when every trial matches.

    Symbolic: det V = prod_h (1 - h^+ h^-)^{c_h} det V' (`reduce_rows`) in
    the domain Z[h], so a product holding each (1 - h^+ h^-)^{c_h} equals
    det V exactly when its quotient by them equals det V'. Otherwise (a
    weight that is not square-free, such as h^+^2 h^-^2, may hold the
    factor) det V is rebuilt and compared with the whole product. A product
    prod (1 - b)^e holds its top term prod b^e with coefficient (-1)^(sum e),
    so a side without it is told apart before the product is expanded.
    """
    if mode == "auto":
        mode = "symbolic" if matrix.size <= DEFAULT_SYMBOLIC_THRESHOLD else "modular"
    if mode == "symbolic":
        packing = shared_packing(matrix, factored)
        rows, counts = reduce_rows(matrix)
        residual = expand_rows(rows, packing)
        quotient = factored.divided(counts)
        if quotient is None:  # compare det V with the whole product
            residual, counts = _times_pulled_out(residual, counts, packing), {}
            quotient = factored
        top = sum(packing.key(mono) * e for mono, e in quotient.factors.items())
        sign = (-1) ** sum(quotient.factors.values())
        equal = residual.get(top) == sign and residual == quotient.packed(packing)

        def determinant():
            det = _times_pulled_out(residual, counts, packing)
            return format_terms(packing.terms(det))

        return mode, equal, determinant
    outcome = det_modular(matrix, seed, trials, product=factored)
    return mode, all(t.match for t in outcome), outcome


def verify_factorization(
    complex_: FaceComplex, apartment=None, seed=0, trials: int = 10
) -> CheckResult:
    """Check the determinant factorization theorem on one apartment.

    Asserts that the multiplicity is independent of the chosen hyperplane,
    then compares the Varchenko determinant against the product formula
    through `compare_with_product` in "auto" mode. A symbolic pass is also
    kept by its `_class_key`, so a later apartment of the same class passes
    without building a matrix; one that fails is compared in full, so its
    record prints its own determinant and product."""
    where, ids = resolve_apartment(complex_, apartment)
    status, details = _factorization(complex_, *ids, seed, trials)
    return CheckResult("factorization", status, {"apartment": where}, details)


@memoized
def _factorization(complex_, chamber_ids, face_ids, seed, trials):
    """The (status, details) of `verify_factorization`."""
    chambers, non_chambers = ([complex_.faces[i] for i in ids] for ids in (chamber_ids, face_ids))
    details: dict = {"chambers": len(chambers)}
    status, beta = beta_details(complex_, chamber_ids, face_ids)
    if status == FAIL:
        details["beta_mismatches"] = beta["mismatches"]
        return FAIL, details

    factored = product_formula(complex_, non_chambers, beta["betas"])
    details["factored"] = factored.text()
    # only symbolic passes are stored, and a key fixes the chamber count
    key = _class_key(chambers, factored)
    if key in complex_._passing_classes:
        details["mode"] = "symbolic"
        return PASS, details
    mode, equal, evidence = compare_with_product(
        varchenko_matrix(chambers), factored, "auto", seed, trials
    )
    details["mode"] = mode
    if mode == "symbolic":
        if equal:
            complex_._passing_classes.add(key)
        else:
            details["determinant"] = evidence()
            details["expected"] = format_polynomial(factored.expand())
    else:
        details.update(seed=str(seed), prime=DEFAULT_PRIME, trials=[
            {"trial": t.trial, "digest": t.digest, "value": t.value} for t in evidence
        ])
        if not equal:
            details["mismatches"] = [
                {"trial": t.trial, "digest": t.digest, "determinant": t.value,
                 "product": t.product}
                for t in evidence if not t.match
            ]
    return PASS if equal else FAIL, details


def _class_key(chambers, factored):
    """The symbolic comparison of an apartment up to renaming hyperplanes:
    the distances v(D, C) of every chamber D from the first chamber C, and
    the product's factors, with hyperplanes renumbered in order of first
    occurrence (chambers in list order, bits increasing) and each h^+ kept
    a plus variable. The distances fix the matrix: a hyperplane that
    separates two chambers separates C from one of them, so it occurs in
    some v(D, C) and C lies on the side of its other variable, and each D
    lies on C's side except across v(D, C). So two apartments with one key
    differ by a permutation of the variables, a ring automorphism of Z[h]
    that keeps whether det V equals the product."""
    first = chambers[0].half
    label: dict = {}

    def renamed(i):
        return 2 * label.setdefault(i // 2, len(label)) + i % 2

    distances = tuple(sum(1 << renamed(i) for i in set_bits(c.half & ~first)) for c in chambers)
    factors = frozenset(
        (tuple(sorted((renamed(i), e) for i, e in mono)), exponent)
        for mono, exponent in factored.factors.items()
    )
    return distances, factors


def beta_independence_check(complex_: FaceComplex, apartment=None) -> CheckResult:
    """Standalone report entry for multiplicity well-definedness."""
    where, ids = resolve_apartment(complex_, apartment)
    status, details = beta_details(complex_, *ids)
    return CheckResult("beta_independence", status, {"apartment": where}, details)


# -- supporting identities ---------------------------------------------------


def v_path_identity_check(complex_: FaceComplex) -> CheckResult:
    """v(C,D) = v(C,FD) v(FD,D) for all chambers C, D and faces F below C,
    compared as half-space masks by the rule in `v`'s docstring. Each FD
    is read from the chamber columns of F's row of the product table."""
    violations = []
    chambers = complex_.chambers()
    faces = complex_.faces
    checked = 0
    for c in chambers:
        below = [(f, _product_row(complex_, f)) for f in closure_faces(complex_, c)]
        for d in chambers:
            left = c.half & ~d.half
            for f, row in below:
                fd = faces[row[d.id]]
                checked += 1
                if (c.half & ~fd.half) | (fd.half & ~d.half) != left:
                    violations.append(
                        {"C": c.id, "D": d.id, "F": f.id, "FD": fd.id}
                    )
    return verdict("v_path_identity", {"checked": checked}, violations=violations)


def mad_recurrence_check(complex_: FaceComplex) -> CheckResult:
    """The backward-induction identity behind the factorization proof:

    sum over F in [A, D] of (-1)^{rk F} m(F, D)
      = (-1)^{rk D} v(D, D~_A) m(A, D~_A)

    checked exactly for every nested pair (A, D) with D a chamber. The
    coordinate of m(A, D) at a chamber C is v(D, C) when AC = D and zero
    otherwise, so the coordinates at C are the Witt vectors scaled by
    distances: witt_lhs times v(D, C), and witt_rhs times
    v(D, D~_A) v(D~_A, C), the OR of two masks by the rule in `v`'s
    docstring. The sides agree when the packed `witt.witt_sums` of the pair
    do and so do the masks at each C with AC = D~_A, the support of witt_rhs.
    """
    chambers = complex_.chambers()
    violations = []
    checked = 0
    for d in chambers:
        for a, (lhs, rhs) in witt_sums(complex_, d)[2].items():
            checked += 1
            d_opp = opposite_through(complex_, a, d)
            scale = d.half & ~d_opp.half
            if lhs != rhs or any(
                d.half & ~chambers[i].half != scale | (d_opp.half & ~chambers[i].half)
                for i in chamber_products(complex_, a).get(d_opp.id, ())
            ):
                violations.append({"A": a.id, "D": d.id})
    return verdict("mad_recurrence", {"checked": checked}, violations=violations)
