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
from functools import reduce
from math import comb, prod
from operator import or_
from typing import NamedTuple

from .apartments import chambers_in, faces_in
from .faces import Face, FaceComplex, centralization, closure_faces
from .polyring import (
    Polynomial,
    assignment_values,
    format_monomial,
    format_terms,
    lex_key,
    mask_monomial,
    set_bits,
    var_of_index,
)
from .report import FAIL, PASS, CheckResult
from .tits import _product_row, opposite_through
from .witt import witt_vectors

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
        only the nonzero fields of each key."""
        w, field = self.width, (1 << self.width) - 1
        return [
            (coef, tuple({i // w: key >> i - i % w & field for i in set_bits(key)}.items()))
            for key, coef in packed.items()
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


def support_order(rows):
    """Row order for the minor expansion: split the rows on whether
    variable k occurs in the row, for each variable k that occurs in some
    row in increasing order, the larger group first (the group holding k
    on a tie), each group keeping its order; then stable-sorted by the
    number of nonzero (not None) entries, fewest first."""
    supports = _row_supports(rows)
    groups = [list(range(len(rows)))]
    for k in set_bits(reduce(or_, supports, 0)):
        split = []
        for group in groups:
            has = [r for r in group if supports[r] >> k & 1]
            lacks = [r for r in group if not supports[r] >> k & 1]
            split += [g for g in sorted((has, lacks), key=len, reverse=True) if g]
        groups = split
    order = [r for group in groups for r in group]
    return sorted(order, key=lambda r: sum(e is not None for e in rows[r]))


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
    factor (1 - h^+ h^-) out of the determinant, and per hyperplane h the
    number of factors (1 - h^+ h^-) divided out; see `det_symbolic`. Only
    hyperplanes whose h^+ occurs are tried: no row operation adds one."""
    rows = [list(row) for row in matrix.entries]
    counts = [0] * (matrix.nvars // 2)
    plus = ((1 << 2 * len(counts)) - 1) // 3  # the variables h^+
    for k in set_bits(reduce(or_, _row_supports(rows), 0) & plus):
        h, x = k // 2, 1 << k
        for i, row in enumerate(rows):
            j = next((c for c, e in enumerate(row) if e == x and c != i), None)
            if j is not None:
                new = _reduced_row(row, rows[j], x, x << 1)
                if new is not None:
                    rows[i] = new
                    counts[h] += 1
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


def det_packed(matrix: VMatrix, packing: Packing):
    """The determinant as a {key: coefficient} dict in `packing`, which must
    cover the `shared_packing` of the matrix; see `det_symbolic`."""
    rows, counts = reduce_rows(matrix)
    order = support_order(rows)
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
    det = level.get((1 << len(keys)) - 1, {})
    for h, k in enumerate(counts):
        if k:
            det = _times_factor_power(det, packing.spread(3 << 2 * h), k)
    return det


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
    column fails is left as it is.

    Expansion. Level r holds the minors of the first r rows on every
    r-subset of columns, keyed by column bitmask. Adding row r to the
    subset T at column j contributes sign (-1)^(r + index of j in T), and
    zero entries contribute nothing. A minor is only ever multiplied by an
    entry, which keeps intermediate growth far below fraction-free
    elimination on these matrices.

    The expansion runs on P V' P^T for the permutation P of
    `support_order`, which has the same determinant. Its cost is the
    number of terms of the minors, and the order keeps that small: when
    every row of a prefix lies on one side of H_h, the exponents of h in a
    minor on that prefix are fixed by its columns, so the minor has fewer
    terms. On a Varchenko matrix, variable h^+ occurs in the row of C
    exactly when C lies in H_h^- and some chamber of the matrix in H_h^+,
    so the order sorts chambers lexicographically by side, within each
    group the larger side of the next hyperplane first. The rows with the
    fewest nonzero entries then go first, which keeps the early levels
    small.

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
    trial: int
    digest: str
    value: int


def modular_assignment(nvars: int, seed, trial: int, prime: int):
    """Deterministic uniform assignment of every ring variable mod prime."""
    rng = random.Random(f"{seed}:{trial}")
    return {
        var_of_index(i): rng.randrange(prime) for i in range(nvars)
    }


def assignment_digest(assignment, prime: int) -> str:
    payload = ",".join(
        f"{var.hyperplane}{'+' if var.sign > 0 else '-'}={value}"
        for var, value in sorted(assignment.items())
    )
    return hashlib.sha256(f"{prime};{payload}".encode()).hexdigest()[:16]


def det_at(matrix: VMatrix, assignment, prime: int, reduced=None) -> int:
    """Determinant of the matrix at one assignment, mod prime: that of the
    `reduce_rows` residual (`reduced`, computed when not given), None read
    as 0, times each (1 - h^+ h^-)^k pulled out, which equals it in Z[h]."""
    rows, counts = reduced or reduce_rows(matrix)
    values = assignment_values(assignment, matrix.nvars, prime)
    det = _det_mod([[0 if e is None else prod(values[i] for i in set_bits(e)) % prime
                     for e in row] for row in rows], prime)
    for h, k in enumerate(counts):
        if k:
            det = det * pow(1 - values[2 * h] * values[2 * h + 1], k, prime) % prime
    return det


def det_modular(matrix: VMatrix, seed=0, trials: int = 10):
    """Determinant values at `trials` random evaluations mod DEFAULT_PRIME,
    in trial order; each trial is deterministic from (seed, trial index)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    reduced = reduce_rows(matrix)

    def run(trial: int) -> ModularTrial:
        assignment = modular_assignment(matrix.nvars, seed, trial, DEFAULT_PRIME)
        return ModularTrial(
            trial,
            assignment_digest(assignment, DEFAULT_PRIME),
            det_at(matrix, assignment, DEFAULT_PRIME, reduced),
        )

    return [run(t) for t in range(trials)]


def _det_mod(rows, prime: int) -> int:
    n = len(rows)
    det = 1
    for col in range(n):
        pivot_row = next(
            (i for i in range(col, n) if rows[i][col] % prime != 0), None
        )
        if pivot_row is None:
            return 0
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col] % prime
        det = det * pivot % prime
        inv = pow(pivot, prime - 2, prime)
        for i in range(col + 1, n):
            factor = rows[i][col] * inv % prime
            if factor:
                rows[i] = [
                    (a - factor * b) % prime
                    for a, b in zip(rows[i], rows[col])
                ]
    return det % prime


# -- multiplicities and the product formula ---------------------------------


def _chamber_trace(complex_: FaceComplex, chamber: Face, h: int):
    """The face F with closure(chamber) meet H_h = closure(F), or None.

    F is the largest closure face on H_h, so its mask is the union of theirs;
    None when no closure face lies on H_h or that union is not a face.
    """
    cache = complex_._traces
    key = (chamber.id, h)
    if key not in cache:
        on_h = [
            g.half for g in closure_faces(complex_, chamber) if g.zero >> 2 * h & 1
        ]
        cache[key] = complex_.by_half.get(reduce(or_, on_h)) if on_h else None
    return cache[key]


def multiplicity(complex_: FaceComplex, face: Face, h: int, chambers) -> int:
    """Half the number of context chambers whose closure meets H_h in the face."""
    if face.is_chamber:
        raise ValueError(f"multiplicity requires a non-chamber face, got {face!r}")
    if h not in centralization(face):
        raise ValueError(
            f"hyperplane H{h + 1} does not contain face {face.id}"
        )
    count = sum(
        1 for c in chambers if _chamber_trace(complex_, c, h) is face
    )
    if count % 2:
        raise RuntimeError(
            f"odd chamber count {count} for face {face.id} on H{h + 1}; "
            "multiplicity must be an integer"
        )
    return count // 2


def beta_independence(complex_: FaceComplex, non_chamber_faces, chambers):
    """Multiplicities per face, plus any dependence on the chosen hyperplane.

    Returns (betas, mismatches) where betas maps face id to the common
    value and mismatches lists faces whose per-hyperplane values differ.
    """
    betas = {}
    mismatches = []
    for face in non_chamber_faces:
        values = {
            h: multiplicity(complex_, face, h, chambers)
            for h in sorted(centralization(face))
        }
        distinct = set(values.values())
        if len(distinct) != 1:
            mismatches.append(
                {"face": face.id, "per_hyperplane": values}
            )
            betas[face.id] = min(distinct)
        else:
            betas[face.id] = distinct.pop()
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

    def expand(self) -> Polynomial:
        packing = Packing.covering(self.nvars, self.bounds())
        return packing.polynomial(self.packed(packing))

    def eval_mod(self, assignment, prime: int) -> int:
        values = assignment_values(assignment, self.nvars, prime)
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
    """(description, chambers, non-chamber faces, (their ids)) of an
    apartment, None standing for the full arrangement; all but the first are
    cached by `half` mask, 0 for the full arrangement, as for the empty subset."""
    where = "full arrangement" if apartment is None else apartment.describe()
    half = 0 if apartment is None else apartment.half
    if half not in complex_._apartments:
        faces = faces_in(complex_, apartment) if half else complex_.faces
        chambers = chambers_in(complex_, apartment) if half else complex_.chambers()
        non_chambers = [f for f in faces if not f.is_chamber]
        ids = (tuple(c.id for c in chambers), tuple(f.id for f in non_chambers))
        complex_._apartments[half] = chambers, non_chambers, ids
    return (where, *complex_._apartments[half])


def beta_details(complex_: FaceComplex, chambers, non_chambers, ids):
    """The (status, details) of `beta_independence_check` on a resolved
    apartment ("betas" holds the least of a face's values), memoized on the
    complex by the check name and everything the details depend on."""
    cache, key = complex_._apartment_checks, ("beta_independence", *ids)
    if key not in cache:
        betas, mismatches = beta_independence(complex_, non_chambers, chambers)
        details = {"faces_checked": len(non_chambers), "betas": betas}
        if mismatches:
            details["mismatches"] = mismatches
        cache[key] = FAIL if mismatches else PASS, details
    return cache[key]


def compare_with_product(matrix: VMatrix, factored: FactoredDet, mode, seed, trials):
    """The determinant of `matrix` beside the product formula, by one route.

    `mode` "auto" takes the symbolic route up to DEFAULT_SYMBOLIC_THRESHOLD
    chambers and the modular one beyond. Returns (mode, outcome): for
    "symbolic" the outcome is (packing, determinant, expanded product),
    both {key: coefficient} dicts in the `shared_packing` of the two; for
    "modular" it is one (ModularTrial, product value) pair per trial, both
    taken at the trial's assignment mod DEFAULT_PRIME.
    """
    if mode == "auto":
        mode = "symbolic" if matrix.size <= DEFAULT_SYMBOLIC_THRESHOLD else "modular"
    if mode == "symbolic":
        packing = shared_packing(matrix, factored)
        return mode, (
            packing, det_packed(matrix, packing), factored.packed(packing)
        )
    return mode, [
        (
            t,
            factored.eval_mod(
                modular_assignment(matrix.nvars, seed, t.trial, DEFAULT_PRIME),
                DEFAULT_PRIME,
            ),
        )
        for t in det_modular(matrix, seed=seed, trials=trials)
    ]


def verify_factorization(
    complex_: FaceComplex, apartment=None, seed=0, trials: int = 10
) -> CheckResult:
    """Check the determinant factorization theorem on one apartment.

    Asserts that the multiplicity is independent of the chosen hyperplane,
    then compares the Varchenko determinant against the product formula
    through `compare_with_product` in "auto" mode; memoized as in
    `beta_details`, with the seed and trial count in the key."""
    where, chambers, non_chambers, ids = resolve_apartment(complex_, apartment)
    cache, key = complex_._apartment_checks, ("factorization", *ids, seed, trials)
    if key not in cache:
        cache[key] = _factorization(complex_, chambers, non_chambers, ids, seed, trials)
    status, details = cache[key]
    return CheckResult("factorization", status, {"apartment": where}, details)


def _factorization(complex_, chambers, non_chambers, ids, seed, trials):
    """The (status, details) of `verify_factorization`."""
    details: dict = {"chambers": len(chambers)}
    status, beta = beta_details(complex_, chambers, non_chambers, ids)
    if status == FAIL:
        details["beta_mismatches"] = beta["mismatches"]
        return FAIL, details

    factored = product_formula(complex_, non_chambers, beta["betas"])
    details["factored"] = factored.text()
    mode, outcome = compare_with_product(
        varchenko_matrix(chambers), factored, "auto", seed, trials
    )
    details["mode"] = mode
    if mode == "symbolic":
        packing, determinant, expected = outcome
        if determinant == expected:
            return PASS, details
        details["determinant"] = format_terms(packing.terms(determinant))
        details["expected"] = format_terms(packing.terms(expected))
        return FAIL, details

    details["seed"] = str(seed)
    details["prime"] = DEFAULT_PRIME
    details["trials"] = [
        {"trial": t.trial, "digest": t.digest, "value": t.value}
        for t, _ in outcome
    ]
    bad = [
        {"trial": t.trial, "digest": t.digest, "determinant": t.value,
         "product": product}
        for t, product in outcome
        if t.value != product
    ]
    if bad:
        details["mismatches"] = bad
        return FAIL, details
    return PASS, details


def beta_independence_check(complex_: FaceComplex, apartment=None) -> CheckResult:
    """Standalone report entry for multiplicity well-definedness."""
    where, chambers, non_chambers, ids = resolve_apartment(complex_, apartment)
    status, details = beta_details(complex_, chambers, non_chambers, ids)
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
    details = {"checked": checked}
    if violations:
        details["violations"] = violations
    return CheckResult("v_path_identity", FAIL if violations else PASS, {}, details)


def mad_recurrence_check(complex_: FaceComplex) -> CheckResult:
    """The backward-induction identity behind the factorization proof:

    sum over F in [A, D] of (-1)^{rk F} m(F, D)
      = (-1)^{rk D} v(D, D~_A) m(A, D~_A)

    checked exactly for every nested pair (A, D) with D a chamber. The
    coordinate of m(A, D) at a chamber C is v(D, C) when AC = D and zero
    otherwise, so the coordinates at C are the Witt vectors scaled by
    distances: witt_lhs times v(D, C), and witt_rhs times
    v(D, D~_A) v(D~_A, C), the OR of two masks by the rule in `v`'s
    docstring. Both are compared as {C: (coefficient, mask)} over the
    nonzero coefficients of the Witt vectors the complex keeps for the
    pair (`witt.witt_vectors`), which `witt_sweep` reads too.
    """
    chambers = complex_.chambers()
    violations = []
    checked = 0
    for d in chambers:
        for a in closure_faces(complex_, d):
            checked += 1
            witt_left, witt_right = witt_vectors(complex_, a, d)
            lhs = {
                i: (k, d.half & ~chambers[i].half) for i, k in witt_left.items()
            }
            d_opp = opposite_through(complex_, a, d)
            scale = d.half & ~d_opp.half
            rhs = {
                i: (k, scale | (d_opp.half & ~chambers[i].half))
                for i, k in witt_right.items()
            }
            if lhs != rhs:
                violations.append({"A": a.id, "D": d.id})
    details = {"checked": checked}
    if violations:
        details["violations"] = violations
    return CheckResult("mad_recurrence", FAIL if violations else PASS, {}, details)
