"""Independent oracles kept deliberately separate from the library paths."""

import itertools
from fractions import Fraction

from varchenko.apartments import enumerate_apartments
from varchenko.geometry import MINUS, PLUS, ZERO, feasible_interior
from varchenko.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult
from varchenko import polyring
from varchenko.polyring import VarId, var_of_index

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _times(mono_a, mono_b):
    """The product of two monomials, as tuples of (variable index,
    exponent) pairs with increasing indices."""
    powers = dict(mono_a)
    for i, e in mono_b:
        powers[i] = powers.get(i, 0) + e
    return tuple(sorted(powers.items()))


class Polynomial(polyring.Polynomial):
    """The library's polynomial value with sparse ring arithmetic, for
    reference computations. Instances compare equal to the library's values
    of the same terms, in both directions. A monomial is a tuple of
    (variable index, exponent) pairs, indices increasing and exponents
    positive, with () for 1."""

    __slots__ = ()

    @classmethod
    def of(cls, poly) -> "Polynomial":
        return cls(poly.nvars, poly.terms)

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "Polynomial":
        return cls(nvars, {(): int(value)})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, var: VarId) -> "Polynomial":
        return cls.monomial(nvars, {var: 1})

    @classmethod
    def square_free(cls, nvars: int, mask: int) -> "Polynomial":
        """The product of the variables whose `VarId.index` bits are set in
        mask, with coefficient 1; mask 0 gives the constant 1."""
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        return cls(nvars, {tuple((i, 1) for i in bits): 1})

    @classmethod
    def monomial(cls, nvars: int, powers, coefficient: int = 1):
        """Single term from {VarId: exponent} powers."""
        mono = ()
        for var, e in powers.items():
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if var.index >= nvars:
                raise ValueError(
                    f"variable {var.label()} outside ring with {nvars} slots"
                )
            if e:
                mono = _times(mono, ((var.index, e),))
        return cls(nvars, {mono: int(coefficient)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def constant_term(self) -> int:
        return self.terms.get((), 0)

    def leading_term(self):
        """(monomial, coefficient) maximal in graded lex order: by degree,
        then by the exponent of the first variable where two monomials
        differ, h1^+ first."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        mono = max(
            self.terms,
            key=lambda m: (sum(e for _, e in m), [(-i, e) for i, e in m]),
        )
        return mono, self.terms[mono]

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError(
                f"mixing rings with {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other) -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0) + coef
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-Polynomial.of(other))

    def __mul__(self, other) -> "Polynomial":
        self._check(other)
        out: dict = {}
        for mono_a, coef_a in self.terms.items():
            for mono_b, coef_b in other.terms.items():
                key = _times(mono_a, mono_b)
                out[key] = out.get(key, 0) + coef_a * coef_b
        return Polynomial(self.nvars, out)

    def scale(self, factor: int) -> "Polynomial":
        return Polynomial(self.nvars, {m: c * factor for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not in the ring")
        result = Polynomial.one(self.nvars)
        for _ in range(exponent):
            result = result * self
        return result


def eval_mod_p(poly, assignment, prime: int) -> int:
    """Value of a polynomial mod prime at a total {VarId: int} assignment."""
    values = {var.index: v % prime for var, v in assignment.items()}
    total = 0
    for mono, coef in poly.terms.items():
        product = coef
        for i, e in mono:
            if i not in values:
                raise ValueError(
                    f"assignment misses variable {var_of_index(i).label()}"
                )
            product = product * pow(values[i], e, prime)
        total = (total + product) % prime
    return total


def permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_by_permutations(matrix) -> Polynomial:
    """Leibniz-formula determinant of a `VMatrix`, its mask entries turned
    into polynomials by `Polynomial.square_free`; usable up to about 6x6."""
    nvars = matrix.nvars
    entries = [
        [Polynomial.square_free(nvars, e) for e in row] for row in matrix.entries
    ]
    n = len(entries)
    total = Polynomial.zero(nvars)
    for perm in itertools.permutations(range(n)):
        product = Polynomial.one(nvars)
        for i, j in enumerate(perm):
            product = product * entries[i][j]
        total = total + product.scale(permutation_sign(perm))
    return total


def det_at_dense(matrix, assignment, prime: int) -> int:
    """Determinant of a `VMatrix` at one {VarId: int} assignment, mod prime:
    every entry evaluated, then Gaussian elimination mod prime. The library
    evaluates the `reduce_rows` residual instead."""
    values = {var.index: v % prime for var, v in assignment.items()}
    rows = []
    for row in matrix.entries:
        evaluated = []
        for mask in row:
            value = 1
            for i in range(mask.bit_length()):
                if mask >> i & 1:
                    value = value * values[i] % prime
            evaluated.append(value)
        rows.append(evaluated)
    n = len(rows)
    det = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot % prime
        inv = pow(pivot, prime - 2, prime)
        for i in range(col + 1, n):
            factor = rows[i][col] * inv % prime
            if factor:
                rows[i] = [(a - factor * b) % prime for a, b in zip(rows[i], rows[col])]
    return det % prime


# -- face algebra on sign vectors ---------------------------------------------
#
# References for the half-space masks of `varchenko.faces`: every operation
# below reads the sign tuples only, and faces are looked up in a dict of
# their own, never through `FaceComplex.find`.


def compose_signs(f_signs, g_signs):
    """Tits product of sign vectors: the signs of f, zeros filled from g."""
    return tuple(sf if sf != ZERO else sg for sf, sg in zip(f_signs, g_signs))


def leq_signs(f_signs, g_signs) -> bool:
    """Face order: every nonzero sign of f is shared by g."""
    return all(sf == ZERO or sf == sg for sf, sg in zip(f_signs, g_signs))


def opposite_signs(a_signs, d_signs):
    """The chamber opposite d through a: d's signs flipped where a is zero."""
    return tuple(-sd if sa == ZERO else sa for sa, sd in zip(a_signs, d_signs))


def faces_by_signs(complex_):
    return {f.signs: f for f in complex_.faces}


def sign_product(complex_):
    """The Tits product f, g -> FG composed from sign vectors."""
    by_signs = faces_by_signs(complex_)
    return lambda f, g: by_signs[compose_signs(f.signs, g.signs)]


def distance(c, d) -> Polynomial:
    """v(C, D) on sign vectors: the variables h_i^s with s the sign of C on
    the hyperplanes i where D has the other sign."""
    powers = {
        VarId(h, sc): 1
        for h, (sc, sd) in enumerate(zip(c.signs, d.signs))
        if sc == -sd
    }
    return Polynomial.monomial(2 * len(c.signs), powers)


def weight_of(face) -> Polynomial:
    """prod h_i^+ h_i^- over the hyperplanes i containing the face."""
    powers = {
        VarId(h, s): 1
        for h, sign in enumerate(face.signs)
        if sign == ZERO
        for s in (PLUS, MINUS)
    }
    return Polynomial.monomial(2 * len(face.signs), powers)


def tits_semigroup_violations(complex_, product=None):
    """Reference for `varchenko.tits.tits_semigroup_check`: the triple loop.

    Products are composed from sign vectors, unless `product(f, g)` is
    given; the order is `leq_signs`. Returns the face count, the triple
    count and the violations, listed in the order the check lists them.
    """
    product = product or sign_product(complex_)
    faces = complex_.faces
    violations = []
    for f in faces:
        if product(f, f) is not f:
            violations.append({"kind": "idempotence", "F": f.id})
        for g in faces:
            if leq_signs(f.signs, g.signs) != (product(f, g) is g):
                violations.append(
                    {"kind": "order_compatibility", "F": f.id, "G": g.id}
                )
    triples = 0
    for e in faces:
        for f in faces:
            ef = product(e, f)
            for g in faces:
                triples += 1
                if product(ef, g) is not product(e, product(f, g)):
                    violations.append(
                        {"kind": "associativity", "E": e.id, "F": f.id, "G": g.id}
                    )
    return {"faces": len(faces), "triples": triples, "violations": violations}


def _below(complex_, face):
    return [f for f in complex_.faces if leq_signs(f.signs, face.signs)]


def _rank_sign(complex_, face):
    """(-1)^{rk F}, with rk F = dim F minus the least face dimension."""
    return -1 if (face.dim - complex_.min_dim) % 2 else 1


def witt_vectors(complex_, a, d, product=None):
    """Both sides of the Witt identity of a nested pair (A, D), in
    chamber-id order: at C, the sum of (-1)^{rk F} over F in [A, D] with
    FC = D, and (-1)^{rk D} when AC is the chamber opposite D through A."""
    product = product or sign_product(complex_)
    d_opp = faces_by_signs(complex_)[opposite_signs(a.signs, d.signs)]
    interval = [f for f in _below(complex_, d) if leq_signs(a.signs, f.signs)]
    chambers = complex_.chambers()
    lhs = [
        sum(_rank_sign(complex_, f) for f in interval if product(f, c) is d)
        for c in chambers
    ]
    rhs = [
        _rank_sign(complex_, d) if product(a, c) is d_opp else 0
        for c in chambers
    ]
    return lhs, rhs


def witt_pair_failures(complex_, product=None):
    """Reference for the `pair_failures` of `witt_sweep`: the nested pairs
    (A, D) whose two Witt vectors differ, in the order the sweep lists them."""
    failures = []
    for d in complex_.chambers():
        for a in _below(complex_, d):
            lhs, rhs = witt_vectors(complex_, a, d, product)
            if lhs != rhs:
                failures.append({"A": a.id, "D": d.id})
    return failures


def chamber_trace(complex_, chamber, h):
    """Reference for `varmatrix._chamber_trace`: the face of the chamber's
    closure on H_h that lies above every other such face, or None."""
    on_h = [
        g for g in _below(complex_, chamber) if g.signs[h] == ZERO
    ]
    return next(
        (g for g in on_h if all(leq_signs(o.signs, g.signs) for o in on_h)),
        None,
    )


def v_path_violations(complex_, product=None):
    """Reference for `v_path_identity_check`: the Polynomial comparison
    v(C,D) = v(C,FD) v(FD,D) over chambers C, D and faces F <= C."""
    product = product or sign_product(complex_)
    chambers = complex_.chambers()
    violations = []
    checked = 0
    for c in chambers:
        below = _below(complex_, c)
        for d in chambers:
            left = distance(c, d)
            for f in below:
                fd = product(f, d)
                checked += 1
                if distance(c, fd) * distance(fd, d) != left:
                    violations.append(
                        {"C": c.id, "D": d.id, "F": f.id, "FD": fd.id}
                    )
    return {"checked": checked, "violations": violations}


def m_vector(complex_, a, d, product=None):
    """Coordinates of m(A, D) on the chamber basis, in chamber-id order.

    The coordinate at C is v(D, C) when AC = D, and zero otherwise. For
    A = D this is the whole distance row of D, since chambers absorb on
    the left.
    """
    product = product or sign_product(complex_)
    nvars = 2 * complex_.arrangement.size
    return [
        distance(d, c) if product(a, c) is d else Polynomial.zero(nvars)
        for c in complex_.chambers()
    ]


def mad_recurrence_violations(complex_, product=None):
    """Reference for `mad_recurrence_check`: both sides of

    sum over F in [A, D] of (-1)^{rk F} m(F, D)
      = (-1)^{rk D} v(D, D~_A) m(A, D~_A)

    as Polynomial vectors, for every nested pair (A, D) with D a chamber.
    """
    product = product or sign_product(complex_)
    by_signs = faces_by_signs(complex_)
    nvars = 2 * complex_.arrangement.size
    chambers = complex_.chambers()
    violations = []
    checked = 0
    for d in chambers:
        for a in _below(complex_, d):
            checked += 1
            lhs = [Polynomial.zero(nvars)] * len(chambers)
            for f in _below(complex_, d):
                if leq_signs(a.signs, f.signs):
                    coords = m_vector(complex_, f, d, product)
                    sign = _rank_sign(complex_, f)
                    lhs = [x + y.scale(sign) for x, y in zip(lhs, coords)]
            d_opp = by_signs[opposite_signs(a.signs, d.signs)]
            scale = distance(d, d_opp)
            rhs = [
                (scale * coord).scale(_rank_sign(complex_, d))
                for coord in m_vector(complex_, a, d_opp, product)
            ]
            if lhs != rhs:
                violations.append({"A": a.id, "D": d.id})
    return {"checked": checked, "violations": violations}


# -- lemma_chm by scanning faces ------------------------------------------------
#
# Reference for `varchenko.euler.lemma_chm_check`: every panel subset is
# enumerated as a list of faces, adjacency rescans the whole complex for a
# codimension-2 face below both panels, and the characteristic rescans the
# chamber's closure for faces below no removed panel.


def share_codim2_scan(complex_, f, g) -> bool:
    """Whether some face of dimension n - 2 lies below both f and g."""
    n = complex_.dimension
    return any(
        k.dim == n - 2 and leq_signs(k.signs, f.signs) and leq_signs(k.signs, g.signs)
        for k in complex_.faces
    )


def _panels_adjacent_scan(complex_, subset) -> bool:
    return all(
        any(g is not f and share_codim2_scan(complex_, f, g) for g in subset)
        for f in subset
    )


def euler_minus_panels_scan(complex_, chamber, subset) -> int:
    """Alternating cell count of the closed chamber minus the closed panels."""
    return sum(
        -1 if g.dim % 2 else 1
        for g in _below(complex_, chamber)
        if not any(leq_signs(g.signs, f.signs) for f in subset)
    )


def admissible_panel_subsets_scan(complex_, chamber):
    """Nonempty proper panel subsets, in bitmask order over the panels in
    id order, whose members each share a codimension-2 face with another
    member when there is more than one."""
    n = complex_.dimension
    chamber_panels = [
        f for f in _below(complex_, chamber) if ZERO in f.signs and f.dim == n - 1
    ]
    count = len(chamber_panels)
    for mask in range(1, (1 << count) - 1):
        subset = [chamber_panels[i] for i in range(count) if mask >> i & 1]
        if len(subset) > 1 and not _panels_adjacent_scan(complex_, subset):
            continue
        yield subset


def lemma_chm_details(complex_):
    """The `details` of `lemma_chm_check`, computed by face scans; chamber
    types and boundedness come from the library."""
    from varchenko.euler import TYPE1, UNKNOWN, classify

    failures = []
    skipped = []
    checked = 0
    for chamber in complex_.chambers():
        tag = classify(complex_, chamber)
        if tag == UNKNOWN:
            skipped.append(chamber.id)
            continue
        for subset in admissible_panel_subsets_scan(complex_, chamber):
            checked += 1
            bounded = all(complex_.face_is_bounded(f) for f in subset)
            expected = -1 if (tag == TYPE1 and bounded) else 0
            actual = euler_minus_panels_scan(complex_, chamber, subset)
            if actual != expected:
                failures.append(
                    {
                        "chamber": chamber.id,
                        "panels": [f.id for f in subset],
                        "chi": actual,
                        "expected": expected,
                    }
                )
    details = {"checked": checked, "skipped": skipped}
    if failures:
        details["failures"] = failures
    return details


# -- face counts from the intersection poset ----------------------------------


def _rank(rows) -> int:
    """Rank over Q by fraction Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def intersection_poset(arrangement):
    """{flat: dimension} of every nonempty intersection of hyperplanes, R^n
    included, each flat named by the frozenset of hyperplanes containing it.

    Built from exact ranks of [A | b] alone: a flat cut by a hyperplane not
    containing it gives a flat when [A | b] and A keep equal ranks, and the
    hyperplanes containing that flat are the rows in the span of its rows.
    """
    n = arrangement.dimension
    rows = [tuple(h.normal) + (h.offset,) for h in arrangement.hyperplanes]
    flats = {frozenset(): n}
    frontier = [(frozenset(), [])]
    while frontier:
        grown = []
        for contained, basis in frontier:
            for g, row in enumerate(rows):
                if g in contained:
                    continue
                cut = basis + [row]
                rank = _rank(cut)
                if _rank([r[:-1] for r in cut]) < rank:
                    continue  # no common point
                flat = frozenset(
                    h for h, other in enumerate(rows)
                    if _rank(cut + [other]) == rank
                )
                if flat not in flats:
                    flats[flat] = n - rank
                    grown.append((flat, cut))
        frontier = grown
    return flats


def zaslavsky_face_counts(arrangement):
    """(faces, bounded): the number of faces, and of bounded faces, of each
    dimension 0..n, from the intersection poset alone (Zaslavsky, *Facing
    up to arrangements*, Mem. AMS 154, 1975).

    The faces of dimension k are the regions of the restrictions A^X to the
    flats X of dimension k. A^X has the flats inside X as its poset and
    characteristic polynomial chi_X(t) = sum of mu(X, Y) t^dim Y over them;
    it has |chi_X(-1)| regions. When A^X is essential (its rank, dim X
    minus the least dimension of a flat inside X, is dim X) it has
    |chi_X(1)| bounded regions. Otherwise it has none: |chi_X(1)| then
    counts relatively bounded regions, one for two parallel lines.
    """
    flats = intersection_poset(arrangement)
    n = arrangement.dimension
    order = sorted(flats, key=lambda x: -flats[x])
    faces = [0] * (n + 1)
    bounded = [0] * (n + 1)
    for x in order:
        mu = {}
        for y in order:
            if x <= y:
                # every z already in mu with z <= y lies strictly below y
                mu[y] = 1 if y == x else -sum(c for z, c in mu.items() if z <= y)
        k = flats[x]
        faces[k] += abs(sum(c * (-1) ** flats[y] for y, c in mu.items()))
        if min(flats[y] for y in mu) == 0:
            bounded[k] += abs(sum(mu.values()))
    return faces, bounded


def face_count_mismatches(expected, faces):
    """How the (dim, bounded) pairs of an arrangement's faces disagree with
    its `zaslavsky_face_counts`, expected, and with the Euler relations: the
    sum of (-1)^dim over all faces is (-1)^n, and over the bounded faces 1
    when there are any. Empty when they agree."""
    expected_faces, expected_bounded = expected
    n = len(expected_faces) - 1
    counts = [0] * (n + 1)
    bounded = [0] * (n + 1)
    problems = []
    for dim, is_bounded in faces:
        if not 0 <= dim <= n:
            problems.append(f"dimension {dim} outside 0..{n}")
            continue
        counts[dim] += 1
        bounded[dim] += bool(is_bounded)
    if counts != expected_faces:
        problems.append(f"faces by dimension {counts}, expected {expected_faces}")
    if bounded != expected_bounded:
        problems.append(
            f"bounded faces by dimension {bounded}, expected {expected_bounded}"
        )
    if sum((-1) ** k * c for k, c in enumerate(counts)) != (-1) ** n:
        problems.append("Euler characteristic of all faces is not (-1)^n")
    if any(bounded) and sum((-1) ** k * c for k, c in enumerate(bounded)) != 1:
        problems.append("Euler characteristic of the bounded faces is not 1")
    return problems


# -- covector axioms of a conditional oriented matroid ------------------------


def com_axiom_violations(halves, m):
    """How a set L of sign vectors on m elements, given as `Face.half` masks
    (bit 2e for e's + side, 2e+1 for its - side), breaks the covector axioms
    of a conditional oriented matroid (Bandelt, Chepoi and Knauer, *COMs:
    complexes of oriented matroids*, JCTA 2018):

    * face symmetry: X o (-Y) is in L for all X, Y in L;
    * strong elimination: for all X, Y in L and every e separating them
      (X_e = -Y_e != 0) some Z in L has Z_e = 0 and agrees with X o Y off
      the separator of X and Y.

    Returns ("face symmetry", X, Y) and ("strong elimination", X, Y, e)
    entries, empty when L is a COM. The candidates Z are found as a bitset
    over L: the members that agree with X o Y at each element off the
    separator.
    """
    even = ((1 << 2 * m) - 1) // 3  # bit 2e for every element e

    def negate(x):
        return (x & even) << 1 | (x >> 1) & even

    def compose(x, y):
        return x | (y & ~(((x | x >> 1) & even) * 3))

    covectors = sorted(set(halves))
    members = set(covectors)
    # per covector, its sign at each element: 0 on it, 1 on its + side and
    # 2 on its - side; with_sign[e][s] is the bitset over L of the
    # covectors with sign s at e
    signs = [[x >> 2 * e & 3 for e in range(m)] for x in covectors]
    with_sign = [[0, 0, 0] for _ in range(m)]
    for i, sx in enumerate(signs):
        for e, s in enumerate(sx):
            with_sign[e][s] |= 1 << i
    everything = (1 << len(covectors)) - 1
    violations = []
    for x, sx in zip(covectors, signs):
        for y, sy in zip(covectors, signs):
            if compose(x, negate(y)) not in members:
                violations.append(("face symmetry", x, y))
            separator = []
            candidates = everything
            for e, (a, b) in enumerate(zip(sx, sy)):
                if a | b == 3:  # opposite signs
                    separator.append(e)
                else:
                    candidates &= with_sign[e][a or b]
            violations.extend(
                ("strong elimination", x, y, e)
                for e in separator
                if not candidates & with_sign[e][0]
            )
    return violations


# -- apartment and polynomial helpers used only by tests ----------------------


def touching_hyperplanes(complex_, apartment):
    """Hyperplanes whose intersection with the apartment's closure has
    dimension n-1: those crossing the open apartment, plus subset members
    carrying a facet of it. Decided exactly by LP."""
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


def central_apartment_around(complex_, face):
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


def zero_substitution(poly: Polynomial, hyperplanes) -> Polynomial:
    """Set h_i^+ = h_i^- = 0 for every hyperplane index in `hyperplanes`."""
    killed = set()
    for h in hyperplanes:
        killed.add(2 * h)
        killed.add(2 * h + 1)
    kept = {
        mono: coef
        for mono, coef in poly.terms.items()
        if not any(i in killed for i, _ in mono)
    }
    return Polynomial(poly.nvars, kept)


def relabel(mono, perm):
    """A monomial with hyperplane i renamed perm[i]: the exponents of h_i^+
    and h_i^- move to h_perm[i]^+ and h_perm[i]^-."""
    return tuple(sorted((2 * perm[i // 2] + i % 2, e) for i, e in mono))


def relabel_polynomial(poly, perm) -> Polynomial:
    """The polynomial with every hyperplane i renamed perm[i]."""
    return Polynomial(poly.nvars, {relabel(m, perm): c for m, c in poly.terms.items()})


def solve_lp_fraction(objective, a_ub, b_ub, a_eq, b_eq):
    """Maximize objective . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Reference for `varchenko.lp.solve_lp`: the same two-phase simplex with
    Bland's rule on a dense `Fraction` tableau. Rows are sequences of
    Fractions. Returns an LPResult whose `x` is an exact rational optimizer
    when status is OPTIMAL.
    """
    num_vars = len(objective)
    rows = []
    senses = []
    for row, rhs in zip(a_ub, b_ub):
        rows.append((list(row), rhs))
        senses.append("<=")
    for row, rhs in zip(a_eq, b_eq):
        rows.append((list(row), rhs))
        senses.append("=")

    # Build equality form: add one slack per inequality, then flip rows so
    # every right-hand side is nonnegative (required by phase 1).
    num_slacks = senses.count("<=")
    total = num_vars + num_slacks
    table = []
    rhs_col = []
    slack_at = 0
    for (row, rhs), sense in zip(rows, senses):
        full = row + [_ZERO] * num_slacks
        if sense == "<=":
            full[num_vars + slack_at] = _ONE
            slack_at += 1
        if rhs < 0:
            full = [-v for v in full]
            rhs = -rhs
        table.append(full)
        rhs_col.append(rhs)

    m = len(table)
    # Phase 1: artificial variable per row, minimize their sum.
    for i in range(m):
        for j in range(m):
            table[i].append(_ONE if i == j else _ZERO)
    basis = [total + i for i in range(m)]
    cost1 = [_ZERO] * total + [_ONE] * m

    value1 = _phase(table, rhs_col, basis, cost1, minimize=True)
    if value1 != 0:
        return LPResult(INFEASIBLE)

    # Drive any lingering artificial variables out of the basis.
    for i in range(m):
        if basis[i] >= total:
            pivot_col = next(
                (j for j in range(total) if table[i][j] != 0), None
            )
            if pivot_col is None:
                continue  # redundant row, harmless
            _pivot(table, rhs_col, basis, i, pivot_col)

    # Phase 2 on the original objective, artificial columns frozen at zero.
    for i in range(m):
        del table[i][total:]
    cost2 = [-c for c in objective] + [_ZERO] * num_slacks  # maximize
    value2 = _phase(table, rhs_col, basis, cost2, minimize=True, ncols=total)
    if value2 is None:
        return LPResult(UNBOUNDED)

    x = [_ZERO] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            x[b] = rhs_col[i]
    return LPResult(OPTIMAL, value=-value2, x=x)


def _phase(table, rhs_col, basis, cost, minimize, ncols=None):
    """Run simplex iterations with Bland's rule; return the optimal cost.

    Returns None if the phase objective is unbounded below.
    """
    assert minimize
    m = len(table)
    if ncols is None:
        ncols = len(table[0]) if m else 0

    while True:
        # Reduced costs: c_j - c_B . B^{-1} A_j, computed from the tableau.
        reduced = list(cost[:ncols])
        for i, b in enumerate(basis):
            cb = cost[b] if b < len(cost) else _ZERO
            if cb == 0:
                continue
            row = table[i]
            for j in range(ncols):
                if row[j] != 0:
                    reduced[j] -= cb * row[j]
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            value = _ZERO
            for i, b in enumerate(basis):
                cb = cost[b] if b < len(cost) else _ZERO
                value += cb * rhs_col[i]
            return value

        leave = None
        best = None
        for i in range(m):
            coef = table[i][enter]
            if coef > 0:
                ratio = rhs_col[i] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        _pivot(table, rhs_col, basis, leave, enter)


def _pivot(table, rhs_col, basis, row, col):
    pivot = table[row][col]
    inv = _ONE / pivot
    table[row] = [v * inv for v in table[row]]
    rhs_col[row] *= inv
    prow = table[row]
    for i in range(len(table)):
        if i == row:
            continue
        factor = table[i][col]
        if factor == 0:
            continue
        table[i] = [v - factor * p for v, p in zip(table[i], prow)]
        rhs_col[i] -= factor * rhs_col[row]
    basis[row] = col
