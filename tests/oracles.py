"""Independent oracles kept deliberately separate from the library paths."""

import itertools
from fractions import Fraction

from varchenko.faces import face_leq
from varchenko.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult
from varchenko.polyring import Polynomial
from varchenko.tits import compose_signs

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def det_by_permutations(entries, nvars) -> Polynomial:
    """Leibniz-formula determinant; usable up to about 6x6."""
    n = len(entries)
    total = Polynomial.zero(nvars)
    for perm in itertools.permutations(range(n)):
        product = Polynomial.one(nvars)
        for i, j in enumerate(perm):
            product = product * entries[i][j]
        total = total + product.scale(permutation_sign(perm))
    return total


def tits_semigroup_violations(complex_, product=None):
    """Reference for `varchenko.tits.tits_semigroup_check`: the triple loop.

    Products are composed from sign vectors and looked up in `by_signs`,
    unless `product(f, g)` is given; the order is `face_leq` on sign
    vectors. Returns the face count, the triple count and the violations,
    listed in the order the check lists them.
    """
    if product is None:

        def product(f, g):
            return complex_.by_signs[compose_signs(f.signs, g.signs)]

    faces = complex_.faces
    violations = []
    for f in faces:
        if product(f, f) is not f:
            violations.append({"kind": "idempotence", "F": f.id})
        for g in faces:
            if face_leq(f, g) != (product(f, g) is g):
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
