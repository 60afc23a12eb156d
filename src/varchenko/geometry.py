"""Exact geometry of affine hyperplanes: sides, feasibility, rank, boundedness.

A hyperplane keeps its given coefficients as `fractions.Fraction` for input
and output, and its primitive integer form, which the face recursion in
`faces` runs on. `canonical` alone decides when two integer hyperplanes are
the same, and `_echelon`, an integer Gauss-Jordan, is the one elimination.
Fractions remain in the LP oracle (`feasible_interior`, `is_bounded`). The
sign convention is global: for a hyperplane with normal a and offset b, the
open half-space H+ is {x : a.x > b} and H- is {x : a.x < b}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .lp import OPTIMAL, solve_lp

PLUS = 1
ZERO = 0
MINUS = -1

SIGN_CHARS = {PLUS: "+", ZERO: "0", MINUS: "-"}
CHAR_SIGNS = {"+": PLUS, "0": ZERO, "-": MINUS}

# Lexicographic convention for sign vectors: + < 0 < -.
SIGN_ORDER = {PLUS: 0, ZERO: 1, MINUS: 2}


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def primitive(values):
    """Integer tuple values divided by the gcd of its entries."""
    g = gcd(*values)
    return tuple(v // g for v in values) if g > 1 else tuple(values)


def _integer_row(values):
    """The primitive integer multiple, by a positive factor, of a row of
    ints and Fractions."""
    scale = lcm(*(c.denominator for c in values))
    return primitive([c.numerator * (scale // c.denominator) for c in values])


def canonical(normal, offset):
    """(key, orientation) of the integer hyperplane normal.x = offset: the
    key, primitive with a positive leading coefficient, is equal for two
    hyperplanes iff they are the same subspace; orientation is PLUS when
    the hyperplane has the key's positive side, MINUS when the opposite."""
    lead = next(x for x in normal if x)
    g = gcd(*normal, offset) * (1 if lead > 0 else -1)
    return (tuple(x // g for x in normal), offset // g), PLUS if lead > 0 else MINUS


class Hyperplane:
    """Affine hyperplane {x : normal . x = offset} with a fixed orientation;
    `integer` is its primitive integer pair (normal, offset), same sides."""

    __slots__ = ("normal", "offset", "integer")

    def __init__(self, normal, offset):
        self.normal = tuple(_frac(a) for a in normal)
        self.offset = _frac(offset)
        if all(a == 0 for a in self.normal):
            raise ValueError("hyperplane normal must be nonzero")
        row = _integer_row((*self.normal, self.offset))
        self.integer = (row[:-1], row[-1])

    @property
    def dimension(self) -> int:
        return len(self.normal)

    def normalized_key(self):
        """Canonical integer form (primitive, leading coefficient positive).

        Two hyperplanes describe the same affine subspace iff their keys
        are equal, which is how duplicates are detected.
        """
        return canonical(*self.integer)[0]

    def value_at(self, point) -> Fraction:
        if len(point) != len(self.normal):
            raise ValueError(
                f"point has dimension {len(point)}, expected {len(self.normal)}"
            )
        return sum(
            (a * _frac(x) for a, x in zip(self.normal, point)), Fraction(0)
        ) - self.offset

    def __eq__(self, other):
        return (
            isinstance(other, Hyperplane)
            and self.normal == other.normal
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.normal, self.offset))

    def __repr__(self):
        return f"Hyperplane({self.normal}, {self.offset})"


class Arrangement:
    """A finite ordered list of pairwise distinct hyperplanes in R^n."""

    __slots__ = ("dimension", "hyperplanes")

    def __init__(self, dimension, hyperplanes):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self.hyperplanes = tuple(hyperplanes)
        seen = {}
        for i, h in enumerate(self.hyperplanes):
            if h.dimension != self.dimension:
                raise ValueError(
                    f"hyperplane {i} has dimension {h.dimension}, "
                    f"expected {self.dimension}"
                )
            key = h.normalized_key()
            if key in seen:
                raise ValueError(
                    f"hyperplanes {seen[key]} and {i} define the same "
                    "affine subspace"
                )
            seen[key] = i

    @property
    def size(self) -> int:
        return len(self.hyperplanes)

    def __repr__(self):
        return f"Arrangement(dim={self.dimension}, m={self.size})"


def side_of(hyperplane: Hyperplane, point) -> int:
    """Sign of point relative to the hyperplane: PLUS, ZERO or MINUS."""
    value = hyperplane.value_at(point)
    if value > 0:
        return PLUS
    if value < 0:
        return MINUS
    return ZERO


def feasible_interior(constraints):
    """Exact witness in the relative interior of a sign-constrained cell.

    `constraints` is a list of (Hyperplane, sign) pairs; sign PLUS/MINUS
    demand strict inequality, ZERO demands membership. Returns a rational
    point satisfying every strict constraint strictly, or None when the
    cell is empty. Deterministic: the same input yields the same witness.

    Strictness is handled by maximizing a common slack t (capped at 1):
    the cell has nonempty relative interior iff the optimum is positive.
    """
    dims = {h.dimension for h, _ in constraints}
    if len(dims) > 1:
        raise ValueError("constraints mix hyperplanes of different dimensions")
    n = dims.pop() if dims else None
    if n is None:
        raise ValueError("feasible_interior needs at least one constraint")

    # Variables: x = u - w with u, w >= 0 (n each), then t = tp - tm.
    num = 2 * n + 2
    t_plus, t_minus = 2 * n, 2 * n + 1

    def expand(coeffs, t_coef):
        return [*coeffs, *(-a for a in coeffs), _frac(t_coef), _frac(-t_coef)]

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for h, sign in constraints:
        if sign == PLUS:  # a.x - t >= b  ->  -a.x + t <= -b
            a_ub.append(expand([-a for a in h.normal], 1))
            b_ub.append(-h.offset)
        elif sign == MINUS:  # a.x + t <= b
            a_ub.append(expand(h.normal, 1))
            b_ub.append(h.offset)
        elif sign == ZERO:
            a_eq.append(expand(h.normal, 0))
            b_eq.append(h.offset)
        else:
            raise ValueError(f"invalid sign {sign!r}")
    cap = [Fraction(0)] * num
    cap[t_plus], cap[t_minus] = Fraction(1), Fraction(-1)
    a_ub.append(cap)
    b_ub.append(Fraction(1))

    objective = [Fraction(0)] * num
    objective[t_plus], objective[t_minus] = Fraction(1), Fraction(-1)
    result = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
    if result.status != OPTIMAL or result.value <= 0:
        return None
    return tuple(result.x[i] - result.x[n + i] for i in range(n))


def _echelon(rows):
    """Integer Gauss-Jordan elimination of integer rows: (rows, pivot
    columns), one primitive row per pivot, whose pivot entry is positive
    and the only nonzero entry of its column."""
    rows = list(rows)
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise ValueError("vectors must have equal length")
    pivots = []
    for col in range(width):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        row = rows[rank]
        row = rows[rank] = primitive([-v for v in row] if row[col] < 0 else row)
        lead = row[col]
        for i, other in enumerate(rows):
            factor = other[col]
            if i != rank and factor:
                rows[i] = primitive([lead * v - factor * p for v, p in zip(other, row)])
        pivots.append(col)
    return rows[: len(pivots)], pivots


def affine_rank(normals) -> int:
    """Rank over Q of a list of vectors, via integer Gauss-Jordan elimination
    of the rows scaled to integers."""
    return len(_echelon([_integer_row([_frac(a) for a in v]) for v in normals])[1])


def transverse_direction(normals, normal):
    """(d, s): an integer direction d with n . d = 0 for every integer
    vector n in normals and normal . d != 0, so d moves along the flat they
    cut out and crosses any hyperplane with that normal. Deterministic: d/s
    is the first null-space basis vector (entry 1 at its free column) that
    works, d its primitive multiple and s > 0 its entry there. None when
    `normal` lies in the span of `normals`.
    """
    rows, pivots = _echelon(normals)
    scale = lcm(*(row[col] for row, col in zip(rows, pivots)))
    for free in range(len(normal)):
        if free in pivots:
            continue
        d = [0] * len(normal)
        d[free] = scale
        for row, col in zip(rows, pivots):
            d[col] = -row[free] * (scale // row[col])
        if sum(map(mul, normal, d)):
            d = primitive(d)
            return d, d[free]
    return None


def is_bounded(constraints) -> bool:
    """Whether the sign-constrained cell is bounded, decided exactly.

    The cell is bounded iff the recession cone of its closure is {0}.
    Raises ValueError on an infeasible constraint set.
    """
    if feasible_interior(constraints) is None:
        raise ValueError("constraint set is infeasible")
    n = constraints[0][0].dimension
    # Fast path: equality normals already span R^n, so the cell is a point.
    zero_normals = [h.normal for h, s in constraints if s == ZERO]
    if affine_rank(zero_normals) == n:
        return True

    # Recession cone: a.d >= 0 for "+" rows, <= 0 for "-", = 0 for "0".
    # Nonzero iff some coordinate direction can reach magnitude 1 in it.
    a_ub, b_ub, a_eq, b_eq = [], [], [], []

    def expand(coeffs):
        return [_frac(a) for a in coeffs] + [-_frac(a) for a in coeffs]

    for h, sign in constraints:
        if sign == PLUS:
            a_ub.append(expand([-a for a in h.normal]))
            b_ub.append(Fraction(0))
        elif sign == MINUS:
            a_ub.append(expand(h.normal))
            b_ub.append(Fraction(0))
        else:
            a_eq.append(expand(h.normal))
            b_eq.append(Fraction(0))

    for i in range(n):
        for direction in (1, -1):
            objective = [Fraction(0)] * (2 * n)
            objective[i] = Fraction(direction)
            objective[n + i] = Fraction(-direction)
            cap = list(objective)
            result = solve_lp(
                objective, a_ub + [cap], b_ub + [Fraction(1)], a_eq, b_eq
            )
            if result.status == OPTIMAL and result.value > 0:
                return False
    return True
