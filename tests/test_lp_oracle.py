"""The integer-tableau simplex against the Fraction-tableau reference.

Both follow Bland's rule on the same LP, so they take the same pivots and
must return identical (status, value, x), not merely equal optima.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from oracles import solve_lp_fraction
from varchenko.lp import solve_lp

# Small numerators and non-unit denominators; zero and negative values make
# negative right-hand sides (flipped rows) and degenerate vertices common.
RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 3))
    row = st.lists(RATIONALS, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=3))
    b_ub = [draw(RATIONALS) for _ in a_ub]
    a_eq = draw(st.lists(row, max_size=2))
    b_eq = [draw(RATIONALS) for _ in a_eq]
    if a_eq and draw(st.booleans()):
        # A redundant equality row leaves an artificial variable basic at
        # zero after phase 1, which exercises the drive-out step.
        i = draw(st.integers(0, len(a_eq) - 1))
        k = draw(st.sampled_from([F(1), F(-1), F(2), F(-3, 2)]))
        a_eq.append([k * v for v in a_eq[i]])
        b_eq.append(k * b_eq[i])
    return draw(row), a_ub, b_ub, a_eq, b_eq


@settings(max_examples=300, deadline=None)
@given(small_lps())
@example(  # redundant equality row: artificial stays basic, row is all zero
    ([F(1), F(0)], [], [], [[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])
)
@example(  # degenerate equalities: an artificial is pivoted out after phase 1
    (
        [F(2), F(0)],
        [[F(1), F(0)]],
        [F(1)],
        [[F(-2), F(2)], [F(-2), F(-2)]],
        [F(0), F(0)],
    )
)
@example(  # ratio tie at a degenerate vertex: the lower basis index leaves
    (
        [F(0), F(0), F(-2)],
        [[F(3), F(0), F(3)], [F(-1), F(0), F(0)]],
        [F(1), F(0)],
        [[F(3), F(-1), F(2)]],
        [F(0)],
    )
)
@example(([F(1)], [[F(1)]], [F(-1)], [], []))  # infeasible, negative rhs
@example(([F(1), F(-1)], [[F(-1), F(1)]], [F(1, 2)], [], []))  # unbounded
@example(  # non-unit denominators in every row and the objective
    ([F(1, 3), F(1, 2)], [[F(2, 3), F(3, 2)]], [F(5, 7)], [], [])
)
def test_solve_lp_matches_fraction_oracle(lp):
    expected = solve_lp_fraction(*lp)
    got = solve_lp(*lp)
    assert (got.status, got.value, got.x) == (
        expected.status,
        expected.value,
        expected.x,
    )

