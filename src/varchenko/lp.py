"""Exact rational linear programming via a two-phase simplex method.

Data come in and go out as rationals (`fractions.Fraction` or `int`); the
tableau in between holds Python integers only. Each input row is scaled by
the lcm of its denominators. Every tableau row is kept primitive, with a
positive coefficient on its basic column, so it is a positive multiple of
the corresponding row of the rational tableau: signs agree, and the ratio
test compares right-hand side over pivot column by cross-multiplication.
The reduced costs are one integer row over a positive common denominator.
No floating point is involved anywhere.

Pivoting follows Bland's rule (lowest entering index, ratio ties broken by
the lowest basis index), so the method terminates on every input and takes
the same pivots as the textbook rational tableau. Problem sizes here are
tiny (a handful of variables and constraints), which makes a dense tableau
entirely adequate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


class LPResult:
    """Outcome of a linear program: status, optimum and a primal solution."""

    __slots__ = ("status", "value", "x")

    def __init__(self, status, value=None, x=None):
        self.status = status
        self.value = value
        self.x = x

    def __repr__(self):
        return f"LPResult({self.status!r}, value={self.value!r})"


def solve_lp(objective, a_ub, b_ub, a_eq, b_eq):
    """Maximize objective . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Entries are rationals (Fraction or int). Returns an LPResult whose
    `value` and `x` are exact Fractions when status is OPTIMAL.
    """
    num_vars = len(objective)
    rows = [(row, rhs, True) for row, rhs in zip(a_ub, b_ub)]
    num_slacks = len(rows)
    rows += [(row, rhs, False) for row, rhs in zip(a_eq, b_eq)]
    total = num_vars + num_slacks
    m = len(rows)

    # Equality form with one slack per inequality; rows are flipped so every
    # right-hand side is nonnegative, then one artificial variable per row
    # (scaled like its row) starts as the basis for phase 1. The last entry
    # of a tableau row is its right-hand side.
    table = []
    slack_at = num_vars
    for i, (row, rhs, has_slack) in enumerate(rows):
        values = list(row) + [rhs]
        scale = lcm(*[v.denominator for v in values])
        ints = [v.numerator * (scale // v.denominator) for v in values]
        flip = -1 if ints[-1] < 0 else 1
        full = [flip * v for v in ints[:-1]] + [0] * (num_slacks + m)
        if has_slack:
            full[slack_at] = flip * scale
            slack_at += 1
        full[total + i] = scale
        full.append(flip * ints[-1])
        table.append(full)
    basis = [total + i for i in range(m)]

    # Phase 1: minimize the sum of the artificial variables.
    cost1 = [0] * total + [1] * m
    z, _ = _phase(table, basis, *_cost_row(table, basis, cost1, 1), total + m)
    if z[-1] != 0:
        return LPResult(INFEASIBLE)

    # Drive any lingering artificial variables out of the basis.
    for i in range(m):
        if basis[i] >= total:
            pivot_col = next((j for j in range(total) if table[i][j]), None)
            if pivot_col is None:
                continue  # redundant row, harmless
            _pivot(table, basis, i, pivot_col)

    # Phase 2 on the original objective, artificial columns dropped.
    for i in range(m):
        table[i] = _primitive(table[i][:total] + table[i][-1:])
    obj_scale = lcm(*[c.denominator for c in objective])
    cost2 = [-c.numerator * (obj_scale // c.denominator) for c in objective]
    cost2 += [0] * num_slacks  # maximize objective = minimize its negation
    phase2 = _phase(
        table, basis, *_cost_row(table, basis, cost2, obj_scale), total
    )
    if phase2 is None:
        return LPResult(UNBOUNDED)

    z, den = phase2
    x = [_ZERO] * num_vars
    for row, b in zip(table, basis):
        if b < num_vars:
            x[b] = Fraction(row[-1], row[b])
    return LPResult(OPTIMAL, value=Fraction(z[-1], den), x=x)


def _primitive(row):
    """The row divided by the gcd of its entries."""
    # reduce() rather than gcd(*row): a star-call builds an argument tuple
    # per call, and CPython 3.11 never reuses freed 20-item tuples, so up to
    # 2000 of them pile up on its free list and raise peak memory.
    g = reduce(gcd, row)
    return [v // g for v in row] if g > 1 else row


def _cost_row(table, basis, cost, scale):
    """Reduced costs of integer `cost` / `scale` at the current basis.

    Returns (z, den) with den > 0: z[j] / den is the reduced cost of column
    j, and z[-1] / den is minus the objective value of the basic solution.
    """
    factor = lcm(
        *[row[b] for row, b in zip(table, basis) if b < len(cost) and cost[b]]
    )
    z = [c * factor for c in cost] + [0]
    for row, b in zip(table, basis):
        cb = cost[b] if b < len(cost) else 0
        if cb:
            mult = cb * (factor // row[b])
            z = [v - mult * r for v, r in zip(z, row)]
    den = scale * factor
    g = reduce(gcd, z, den)
    return [v // g for v in z], den // g


def _phase(table, basis, z, den, ncols):
    """Run simplex iterations with Bland's rule on the first ncols columns.

    Returns the final (z, den) cost row, or None if the phase objective is
    unbounded below.
    """
    while True:
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            return z, den

        # Ratio test: the basic column's coefficient cancels, so the ratio
        # of row i is row[-1] / row[enter]; compare by cross-multiplying.
        leave = None
        for i, row in enumerate(table):
            coef = row[enter]
            if coef > 0:
                if leave is None:
                    leave, best_rhs, best_coef = i, row[-1], coef
                    continue
                lhs, rhs = row[-1] * best_coef, best_rhs * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_coef = i, row[-1], coef
        if leave is None:
            return None
        z, den = _pivot(table, basis, leave, enter, z, den)


def _pivot(table, basis, row, col, z=None, den=None):
    """Pivot on (row, col); update the cost row z / den too when given."""
    prow = table[row]
    p = prow[col]
    if p < 0:
        prow = table[row] = [-v for v in prow]
        p = -p
    for i, other in enumerate(table):
        factor = other[col]
        if i == row or factor == 0:
            continue
        table[i] = _primitive([p * v - factor * q for v, q in zip(other, prow)])
    basis[row] = col
    if z is not None and z[col] != 0:
        factor = z[col]
        z = [p * v - factor * q for v, q in zip(z, prow)]
        den *= p
        g = reduce(gcd, z, den)
        z, den = [v // g for v in z], den // g
    return z, den
