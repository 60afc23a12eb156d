import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from varchenko import varmatrix
from varchenko.apartments import (
    chambers_in,
    enumerate_apartments,
    faces_in,
    find_apartment,
)
from varchenko.faces import enumerate_faces, half_mask
from varchenko.files import parse_arrangement
from varchenko.files import bundled_text, parse_matrix
from varchenko.geometry import MINUS, PLUS, ZERO
from varchenko.polyring import VarId, var_of_index, format_polynomial, weight
from varchenko.tits import tits_product
from varchenko.varmatrix import (
    DEFAULT_PRIME,
    FactoredDet,
    assignment_digest,
    beta_independence,
    det_at,
    det_modular,
    det_symbolic,
    frontier_order,
    mad_recurrence_check,
    modular_assignment,
    multiplicity,
    product_formula,
    reduce_rows,
    shared_packing,
    v,
    v_path_identity_check,
    varchenko_matrix,
    VMatrix,
    verify_factorization,
)
from oracles import (
    Polynomial,
    central_apartment_around,
    det_at_dense,
    det_by_permutations,
    eval_mod_p,
    m_vector,
    mad_recurrence_violations,
    permutation_sign,
    touching_hyperplanes,
    v_path_violations,
    zero_substitution,
)
from test_tits import corrupted_generic3

APARTMENT_ORDER = [
    (MINUS, PLUS, PLUS, PLUS),
    (MINUS, MINUS, PLUS, PLUS),
    (MINUS, MINUS, MINUS, PLUS),
    (MINUS, PLUS, PLUS, MINUS),
    (MINUS, MINUS, PLUS, MINUS),
    (MINUS, MINUS, MINUS, MINUS),
]


def printed_product(nvars=8):
    one = Polynomial.one(nvars)

    def factor(h, e):
        pair = Polynomial.variable(nvars, VarId(h, PLUS)) * Polynomial.variable(
            nvars, VarId(h, MINUS)
        )
        return (one - pair) ** e

    return factor(1, 2) * factor(2, 2) * factor(3, 3)


def separator_set(c, d):
    """The (hyperplane, sign of c) pairs of the hyperplanes separating the
    chambers c and d, read off the mask v(c, d)."""
    mask = v(c, d)
    return {tuple(var_of_index(i)) for i in range(mask.bit_length()) if mask >> i & 1}


def test_separator_set_examples(r1, crossing):
    c = crossing.find((PLUS, PLUS))
    assert separator_set(c, c) == set()
    assert separator_set(r1.find((PLUS,)), r1.find((MINUS,))) == {(0, PLUS)}
    assert separator_set(
        crossing.find((PLUS, PLUS)), crossing.find((MINUS, MINUS))
    ) == {(0, PLUS), (1, PLUS)}
    for d in crossing.chambers():
        assert half_mask(separator_set(c, d)) == v(c, d) == c.half & ~d.half
    with pytest.raises(ValueError):
        separator_set(crossing.find((ZERO, PLUS)), c)


def test_v_examples(r1, crossing):
    # bit 2h stands for h_{h+1}^+ and bit 2h + 1 for h_{h+1}^-
    plus, minus = r1.find((PLUS,)), r1.find((MINUS,))
    assert v(plus, plus) == 0
    assert v(plus, minus) == 0b01
    assert v(minus, plus) == 0b10
    c = crossing.find((PLUS, PLUS))
    assert v(c, c) == 0
    assert v(c, crossing.find((MINUS, MINUS))) == 0b0101
    assert v(c, crossing.find((PLUS, MINUS))) == 0b0100
    for face in (crossing.find((ZERO, PLUS)), crossing.find((ZERO, ZERO))):
        with pytest.raises(ValueError):
            v(face, c)
        with pytest.raises(ValueError):
            v(face, face)


def test_r1_matrix_and_det(r1):
    matrix = varchenko_matrix(r1.chambers())
    assert matrix.entries == [[0, 0b10], [0b01, 0]]
    assert matrix.entry_texts() == [["1", "1 * h1^-"], ["1 * h1^+", "1"]]
    assert format_polynomial(det_symbolic(matrix)) == "1 - 1 * h1^+ h1^-"


def test_crossing_det_kronecker(crossing):
    matrix = varchenko_matrix(crossing.chambers())
    det = det_symbolic(matrix)
    one = Polynomial.one(4)
    factors = [
        one
        - Polynomial.variable(4, VarId(h, PLUS))
        * Polynomial.variable(4, VarId(h, MINUS))
        for h in (0, 1)
    ]
    assert det == factors[0] ** 2 * factors[1] ** 2
    assert det == det_by_permutations(matrix)


def test_bundled_matrix_reproduced_entry_for_entry(two_pairs):
    chambers = [two_pairs.find(signs) for signs in APARTMENT_ORDER]
    assert all(c is not None for c in chambers)
    built = varchenko_matrix(chambers)
    built.validate()
    parsed = parse_matrix(bundled_text("two_pairs_apartment.vmx"))
    assert built.entries == parsed.entries


def test_validate_on_masks():
    # bits 0, 1, 2, 3 are h1^+, h1^-, h2^+, h2^-
    VMatrix(range(2), [[0, 0b0110], [0b1001, 0]], 4).validate()
    for entries, rule in (
        ([[0, 0b01]], "not square"),
        ([[0b01, 0b01], [0b10, 0]], "diagonal"),
        ([[0, 0b0011], [0b0011, 0]], "both half-space variables"),
        ([[0, 0b0110], [0b0110, 0]], "opposite half-space variables"),
        # chambers 1 and 2 both lie on the h1^+ side of chamber 0, yet
        # v(2, 1) = h1^+ puts them on opposite sides of H1
        ([[0, 0b01, 0b01], [0b10, 0, 0b01], [0b10, 0b10, 0]], "distance of chambers"),
    ):
        with pytest.raises(ValueError, match=rule):
            VMatrix(range(len(entries)), entries, 4).validate()


def test_apartment_matrix_first_row(two_pairs):
    chambers = [two_pairs.find(signs) for signs in APARTMENT_ORDER]
    first_row = varchenko_matrix(chambers).entry_texts()[0]
    assert first_row == [
        "1",
        "1 * h2^-",
        "1 * h2^- h3^-",
        "1 * h4^-",
        "1 * h2^- h4^-",
        "1 * h2^- h3^- h4^-",
    ]


def test_bundled_matrix_det_matches_printed_product(two_pairs):
    matrix = parse_matrix(bundled_text("two_pairs_apartment.vmx"))
    assert det_symbolic(matrix) == printed_product()


def test_det_order_invariance(two_pairs):
    apartment = find_apartment(two_pairs, (0,), (MINUS,))
    chambers = chambers_in(two_pairs, apartment)
    reordered = [two_pairs.find(signs) for signs in APARTMENT_ORDER]
    assert det_symbolic(varchenko_matrix(chambers)) == det_symbolic(
        varchenko_matrix(reordered)
    )


def test_det_constant_term_one(complexes):
    for name in ("r1", "crossing", "generic3", "parallel2"):
        matrix = varchenko_matrix(complexes[name].chambers())
        assert Polynomial.of(det_symbolic(matrix)).constant_term() == 1


def test_det_strategies_agree(generic3, two_pairs):
    matrix = varchenko_matrix(generic3.chambers())
    assert det_symbolic(matrix) == det_by_permutations(matrix)
    for subset, signs in (((0,), (MINUS,)), ((1,), (PLUS,)), ((2, 3), (PLUS, MINUS))):
        apartment = find_apartment(two_pairs, subset, signs)
        matrix = varchenko_matrix(chambers_in(two_pairs, apartment))
        assert det_symbolic(matrix) == det_by_permutations(matrix)


@st.composite
def mask_matrices(draw):
    """Square matrices of arbitrary variable masks, not only distance
    matrices: any entry, the diagonal included, may hold any variables."""
    n = draw(st.integers(1, 5))
    nvars = draw(st.integers(0, 6))
    masks = st.integers(0, (1 << nvars) - 1)
    entries = [[draw(masks) for _ in range(n)] for _ in range(n)]
    return VMatrix(range(n), entries, nvars)


@settings(max_examples=150, deadline=None)
@given(mask_matrices())
def test_det_symbolic_matches_leibniz_oracle(matrix):
    assert det_symbolic(matrix) == det_by_permutations(matrix)


@st.composite
def sign_vector_matrices(draw):
    """Distance matrices of random chamber sides over m <= 3 hyperplanes,
    repeated chambers allowed, drawn as they are or with one entry replaced
    by an arbitrary mask."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 3))
    sides = [
        sum(1 << 2 * h + draw(st.integers(0, 1)) for h in range(m)) for _ in range(n)
    ]
    entries = [[sides[c] & ~sides[r] for c in range(n)] for r in range(n)]
    if draw(st.booleans()):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        entries[r][c] = draw(st.integers(0, (1 << 2 * m) - 1))
    return VMatrix(range(n), entries, 2 * m)


@settings(max_examples=300, deadline=None)
@given(sign_vector_matrices())
def test_det_symbolic_of_sign_vector_matrices_matches_leibniz_oracle(matrix):
    assert det_symbolic(matrix) == det_by_permutations(matrix)


def test_reduce_rows_pulls_one_factor_from_r1(r1):
    # row 1 holds h1^+ at column 0: row_1 - h1^+ row_0 = (0, 1 - h1^+ h1^-)
    matrix = varchenko_matrix(r1.chambers())
    assert matrix.entries == [[0, 0b10], [0b01, 0]]
    assert reduce_rows(matrix) == ([[0, 0b10], [None, 0]], {0: 1})


@pytest.mark.parametrize(
    "entries",
    [
        # column 0: e = p | x, but x is in p too, so e - x p = (1 - x) e
        [[0b01, 0b01], [0b01, 0]],
        # column 1: p = e | x', but x' is in e too, so e - x p = (1 - x) e
        [[0, 0b10], [0b01, 0b10]],
    ],
    ids=["x-in-pivot", "x-bar-in-entry"],
)
def test_reduce_rows_leaves_a_row_with_a_remainder(entries):
    matrix = VMatrix(range(2), entries, 2)
    assert reduce_rows(matrix) == (entries, {})
    assert det_symbolic(matrix) == det_by_permutations(matrix)


def test_det_symbolic_with_an_odd_variable_count():
    # bits 1 and 2 are h1^- and h2^+, not one hyperplane's pair, and h2^-
    # is outside the ring, so no factor (1 - h^+ h^-) comes out here
    matrix = VMatrix(range(2), [[0, 0b111], [0b010, 0b011]], 3)
    assert reduce_rows(matrix) == (matrix.entries, {})
    assert det_symbolic(matrix) == det_by_permutations(matrix)


def test_reduce_rows_leaves_a_zero_beside_a_nonzero():
    # reduced rows hold None for zero; in column 1 row 1 is zero and the
    # pivot row 0 is not, so e - x p = -x p remains
    entries = [[0, 0b10], [0b01, None]]
    assert reduce_rows(VMatrix(range(2), entries, 2)) == (entries, {})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_det_symbolic_under_row_and_column_permutations(data):
    matrix = data.draw(mask_matrices())
    perm = data.draw(st.permutations(range(matrix.size)))
    rows = [matrix.entries[i] for i in perm]
    both = [[row[j] for j in perm] for row in rows]
    det = det_symbolic(matrix)
    assert det_symbolic(VMatrix(perm, both, matrix.nvars)) == det
    assert det_symbolic(VMatrix(perm, rows, matrix.nvars)) == Polynomial.of(det).scale(
        permutation_sign(perm)
    )


def test_frontier_order_keeps_the_taken_columns_few():
    # Rows 1, 2 and 3 each reach two columns; row 1 goes first on the index.
    # Row 3 adds no column to row 1's, so it goes before row 2, which ties
    # with row 0 on the union of all four columns and has fewer nonzeros.
    x = 1
    rows = [
        [0, x, x, x],
        [None, 0, None, x],
        [x, None, 0, None],
        [None, x, None, 0],
    ]
    assert frontier_order(rows) == [1, 3, 2, 0]
    assert frontier_order([[0] * 3] * 3) == [0, 1, 2]


def apartment_chambers(complex_):
    """The chamber list of every apartment over every hyperplane subset."""
    m = complex_.arrangement.size
    for mask in range(1 << m):
        subset = [h for h in range(m) if mask >> h & 1]
        for apartment in enumerate_apartments(complex_, subset):
            yield chambers_in(complex_, apartment)


def test_det_symbolic_ignores_chamber_order(complexes):
    rng = random.Random(8)
    for complex_ in complexes.values():
        for chambers in apartment_chambers(complex_):
            shuffled = rng.sample(chambers, len(chambers))
            assert det_symbolic(varchenko_matrix(shuffled)) == det_symbolic(
                varchenko_matrix(chambers)
            )


def cyclic_complex(m):
    """The m lines x + t y = t^2, t = -3, ..., m - 4, in general position."""
    text = "dim 2\n" + "".join(f"1 {t} {t * t}\n" for t in range(-3, m - 3))
    return enumerate_faces(parse_arrangement(text))


def assert_det_symbolic_matches_det_at(matrix, seed):
    """det_symbolic evaluated at 3 seeded assignments equals the dense
    evaluation there, which shares no row operation with either route."""
    det = det_symbolic(matrix)
    for trial in range(3):
        assignment = modular_assignment(matrix.nvars, seed, trial, DEFAULT_PRIME)
        assert eval_mod_p(det, assignment, DEFAULT_PRIME) == det_at_dense(
            matrix, assignment, DEFAULT_PRIME
        )


def test_det_symbolic_14_chamber_apartment_matches_det_at():
    complex_ = cyclic_complex(7)
    apartment = find_apartment(complex_, (2,), (MINUS,))
    matrix = varchenko_matrix(chambers_in(complex_, apartment))
    assert matrix.size == 14
    assert_det_symbolic_matches_det_at(matrix, 14)


def test_det_symbolic_17_chamber_apartment_matches_det_at():
    complex_ = cyclic_complex(7)
    apartment = find_apartment(complex_, (1,), (MINUS,))
    matrix = varchenko_matrix(chambers_in(complex_, apartment))
    assert matrix.size == 17
    assert_det_symbolic_matches_det_at(matrix, 17)


def test_symbolic_determinants_lie_in_z_of_y(complexes):
    # Every Leibniz term is a product over closed walks, which cross each
    # hyperplane as often one way as the other, so every term of the
    # determinant has equal exponents of h_i^+ and h_i^-.
    for complex_ in [*complexes.values(), cyclic_complex(5)]:
        for chambers in apartment_chambers(complex_):
            for mono in det_symbolic(varchenko_matrix(chambers)).terms:
                powers = dict(mono)
                assert all(
                    powers.get(i ^ 1) == e for i, e in mono
                ), ([c.id for c in chambers], mono)


def test_det_symbolic_exponent_bound_fills_packed_field():
    # x occurs in all 3 rows, so its exponent bound is 3 = 2**2 - 1 and a
    # field two bits wide must hold x^3 exactly; a field as wide as one
    # row's exponent would carry into y's bits. The same holds for y.
    # Mask 0 is the monomial 1.
    x, y = 0b01, 0b10
    matrix = VMatrix(range(3), [[x, y, 0], [0, x, y], [y, 0, x]], 2)
    assert shared_packing(matrix).width == 2
    det = det_symbolic(matrix)
    X = Polynomial.variable(2, var_of_index(0))
    Y = Polynomial.variable(2, var_of_index(1))
    one = Polynomial.one(2)
    assert det == X**3 + Y**3 + one - (X * Y).scale(3)
    assert det == det_by_permutations(matrix)


def test_det_symbolic_singular_matrix():
    x, y = 0b0001, 0b1000
    row = [0, x | y, y]
    matrix = VMatrix(range(3), [row, [x, 0, y], row], 4)
    assert det_symbolic(matrix) == Polynomial.zero(4)


def test_det_symbolic_without_variables():
    one = Polynomial.one(0)
    assert det_symbolic(VMatrix([0], [[0]], 0)) == one
    assert det_symbolic(parse_matrix("vmatrix 1 0\n1\n")) == one
    empty = enumerate_faces(parse_arrangement("dim 2\n"))
    assert det_symbolic(varchenko_matrix(empty.chambers())) == one


def test_det_symbolic_12_chamber_apartment_matches_modular():
    # the apartment H2^- of cyclic_complex(6) holds 12 chambers, the
    # largest size the symbolic route serves in "auto" mode.
    complex_ = cyclic_complex(6)
    apartment = find_apartment(complex_, (1,), (MINUS,))
    matrix = varchenko_matrix(chambers_in(complex_, apartment))
    assert matrix.size == 12
    assert_det_symbolic_matches_det_at(matrix, 3)


def test_det_modular_identity_at_zero(crossing):
    matrix = varchenko_matrix(crossing.chambers())
    zeros = [0] * 4  # h1^+, h1^-, h2^+, h2^-
    assert det_at(matrix, zeros, 101) == 1


def test_det_modular_r1_small_prime(r1):
    matrix = varchenko_matrix(r1.chambers())
    assignment = [2, 3]  # h1^+, h1^-
    assert det_at(matrix, assignment, 101) == 96


def test_det_modular_matches_symbolic(crossing):
    matrix = varchenko_matrix(crossing.chambers())
    det = det_symbolic(matrix)
    trials = det_modular(matrix, seed=42, trials=8)
    assert len(trials) == 8
    for trial in trials:
        assignment = modular_assignment(matrix.nvars, 42, trial.trial, DEFAULT_PRIME)
        assert trial.value == eval_mod_p(det, assignment, DEFAULT_PRIME)


def var_id_assignment(nvars, seed, trial, prime):
    """The assignment as a {VarId: value} dict, drawn in index order."""
    rng = random.Random(f"{seed}:{trial}")
    return {var_of_index(i): rng.randrange(prime) for i in range(nvars)}


def var_id_digest(assignment, prime):
    """The digest of a {VarId: value} assignment, listed in VarId order."""
    payload = ",".join(
        f"{var.hyperplane}{'+' if var.sign > 0 else '-'}={value}"
        for var, value in sorted(assignment.items())
    )
    return hashlib.sha256(f"{prime};{payload}".encode()).hexdigest()[:16]


@pytest.mark.parametrize("nvars", range(10))
def test_assignment_digest_matches_the_var_id_formula(nvars):
    # odd counts too: the last hyperplane then has only h^+
    for prime in (3, 101, DEFAULT_PRIME):
        for trial in range(3):
            values = modular_assignment(nvars, "digest", trial, prime)
            by_var = var_id_assignment(nvars, "digest", trial, prime)
            assert values == [by_var[var_of_index(i)] for i in range(nvars)]
            assert assignment_digest(values, prime) == var_id_digest(by_var, prime)


def test_det_modular_deterministic(crossing):
    matrix = varchenko_matrix(crossing.chambers())
    assert det_modular(matrix, seed=7, trials=6) == det_modular(
        matrix, seed=7, trials=6
    )


def test_det_at_matches_dense_oracle_on_varchenko_matrices(complexes):
    # every apartment of the bundled arrangements and of cyclic_complex(5),
    # plus the 22 chambers of cyclic_complex(6), which row operations
    # leave a residual of one strongly connected block
    matrices = [
        varchenko_matrix(chambers)
        for complex_ in [*complexes.values(), cyclic_complex(5)]
        for chambers in apartment_chambers(complex_)
    ]
    matrices.append(varchenko_matrix(cyclic_complex(6).chambers()))
    for n, matrix in enumerate(matrices):
        for prime in (101, DEFAULT_PRIME):
            assignment = modular_assignment(matrix.nvars, "residual", n, prime)
            assert det_at(matrix, assignment, prime) == det_at_dense(
                matrix, assignment, prime
            )


def leaves_a_row_unreduced(rows, nvars):
    """Whether some row still holds a variable h^+ alone off the diagonal:
    the row operation for h was tried on that row and did not apply."""
    plus = {1 << k for k in range(0, nvars, 2)}
    return any(
        e in plus for i, row in enumerate(rows) for j, e in enumerate(row) if j != i
    )


def test_det_at_matches_dense_oracle_where_rows_stay_unreduced():
    # distance matrices of random chamber sides, each with one entry
    # replaced by an arbitrary mask, so the row operations apply to some
    # rows and not to others
    rng = random.Random(18)
    mixed = 0
    for case in range(300):
        n, m = rng.randint(2, 7), rng.randint(1, 4)
        sides = [sum(1 << 2 * h + rng.randint(0, 1) for h in range(m)) for _ in range(n)]
        entries = [[sides[c] & ~sides[r] for c in range(n)] for r in range(n)]
        entries[rng.randrange(n)][rng.randrange(n)] = rng.randrange(1 << 2 * m)
        matrix = VMatrix(range(n), entries, 2 * m)
        rows, counts = reduce_rows(matrix)
        mixed += bool(counts) and leaves_a_row_unreduced(rows, matrix.nvars)
        # at 2 and 3 the unreduced row updates often leave an entry that is
        # a nonzero multiple of the prime, which must not become a pivot
        for prime in (2, 3, 101, DEFAULT_PRIME):
            assignment = modular_assignment(matrix.nvars, "unreduced", case, prime)
            assert det_at(matrix, assignment, prime) == det_at_dense(
                matrix, assignment, prime
            )
    assert mixed >= 20


def test_det_at_matches_dense_oracle_on_the_37_chamber_cyclic_matrix():
    # the largest matrix evaluated here: its entries grow most between
    # reductions in the elimination
    matrix = varchenko_matrix(cyclic_complex(8).chambers())
    assert matrix.size == 37
    for trial in range(3):
        assignment = modular_assignment(matrix.nvars, "cyclic8", trial, DEFAULT_PRIME)
        assert det_at(matrix, assignment, DEFAULT_PRIME) == det_at_dense(
            matrix, assignment, DEFAULT_PRIME
        )


def test_det_at_is_zero_where_a_pulled_out_factor_vanishes(r1):
    # 2 * 51 = 102 = 1 mod 101, so the factor (1 - h^+ h^-) is 0 at h^+ = 2,
    # h^- = 51 and so is the determinant, which it divides
    rng = random.Random(18)
    for matrix in (
        varchenko_matrix(r1.chambers()),
        varchenko_matrix(cyclic_complex(5).chambers()),
    ):
        counts = reduce_rows(matrix)[1]
        for h in counts:
            assignment = [rng.randrange(101) for _ in range(matrix.nvars)]
            assignment[2 * h], assignment[2 * h + 1] = 2, 51  # h^+, h^-
            assert det_at(matrix, assignment, 101) == 0
            assert det_at_dense(matrix, assignment, 101) == 0


def test_multiplicity_examples(r1, crossing, two_pairs):
    face = two_pairs.find((MINUS, MINUS, ZERO, ZERO))
    assert multiplicity(two_pairs, face, 2, two_pairs.chambers()) == 0
    assert multiplicity(two_pairs, face, 3, two_pairs.chambers()) == 0
    assert multiplicity(r1, r1.find((ZERO,)), 0, r1.chambers()) == 1
    vertex = crossing.find((ZERO, ZERO))
    assert multiplicity(crossing, vertex, 0, crossing.chambers()) == 0
    for ray in crossing.faces:
        if ray.dim == 1 and not ray.is_chamber:
            h = ray.zero_set()[0]
            assert multiplicity(crossing, ray, h, crossing.chambers()) == 1


def test_multiplicity_preconditions(crossing):
    vertex = crossing.find((ZERO, ZERO))
    ray = crossing.find((ZERO, PLUS))
    with pytest.raises(ValueError):
        multiplicity(crossing, ray, 1, crossing.chambers())  # H2 not in A_F
    with pytest.raises(ValueError):
        multiplicity(crossing, crossing.find((PLUS, PLUS)), 0, crossing.chambers())


def test_product_formula_examples(r1, crossing):
    betas, mismatches = beta_independence(
        r1, [f for f in r1.faces if not f.is_chamber], r1.chambers()
    )
    assert not mismatches
    factored = product_formula(
        r1, [f for f in r1.faces if not f.is_chamber], betas
    )
    one = Polynomial.one(2)
    pair = Polynomial.variable(2, VarId(0, PLUS)) * Polynomial.variable(2, VarId(0, MINUS))
    assert factored.expand() == one - pair

    non_chambers = [f for f in crossing.faces if not f.is_chamber]
    betas, _ = beta_independence(crossing, non_chambers, crossing.chambers())
    factored = product_formula(crossing, non_chambers, betas)
    one = Polynomial.one(4)
    f1 = one - Polynomial.variable(4, VarId(0, PLUS)) * Polynomial.variable(4, VarId(0, MINUS))
    f2 = one - Polynomial.variable(4, VarId(1, PLUS)) * Polynomial.variable(4, VarId(1, MINUS))
    assert factored.expand() == f1 ** 2 * f2 ** 2


def test_verify_factorization_passes(r1, crossing, two_pairs):
    assert verify_factorization(r1).status == "pass"
    assert verify_factorization(crossing).status == "pass"
    apartment = find_apartment(two_pairs, (0,), (MINUS,))
    result = verify_factorization(two_pairs, apartment)
    assert result.status == "pass"
    assert result.details["mode"] == "symbolic"
    assert result.details["factored"] == (
        "(1 - 1 * h2^+ h2^-)^2 (1 - 1 * h3^+ h3^-)^2 (1 - 1 * h4^+ h4^-)^3"
    )


@pytest.mark.parametrize(
    "powers, exponent",
    [
        # (1 - h1^+ h1^-)^(2**w): its exponents reach 2**w, one past what
        # the matrix's width w holds
        ({VarId(0, PLUS): 1, VarId(0, MINUS): 1}, 2),
        # h1^+^3 packs to the key of h1^+ h1^- in one-bit fields, so a
        # width from the matrix alone would call this product equal
        ({VarId(0, PLUS): 3}, 1),
    ],
    ids=["square-of-weight", "carry-onto-weight"],
)
def test_factorization_packs_both_sides_in_one_width(monkeypatch, powers, exponent):
    # a fresh complex: the session's one holds memoized factorization
    # details, made with the product formula that this test replaces
    r1 = enumerate_faces(parse_arrangement(bundled_text("r1.arr")))
    matrix = varchenko_matrix(r1.chambers())
    assert shared_packing(matrix).width == 1
    b = Polynomial.monomial(matrix.nvars, powers)
    (mono,) = b.terms
    factored = FactoredDet(matrix.nvars, [(mono, exponent)])
    assert max(factored.bounds()) > 1
    monkeypatch.setattr(
        varmatrix, "product_formula", lambda complex_, faces, betas: factored
    )
    result = verify_factorization(r1)
    assert result.status == "fail" and result.details["mode"] == "symbolic"
    assert result.details["determinant"] == "1 - 1 * h1^+ h1^-"
    assert result.details["expected"] == format_polynomial(
        (Polynomial.one(matrix.nvars) - b) ** exponent
    )


def test_verify_factorization_modular_roundtrip(r3):
    result = verify_factorization(r3, seed=5, trials=4)
    assert result.status == "pass"
    assert result.details["mode"] == "modular"
    assert len(result.details["trials"]) == 4


def test_v_path_identity(crossing, generic3):
    assert v_path_identity_check(crossing).status == "pass"
    assert v_path_identity_check(generic3).status == "pass"


@pytest.mark.parametrize(
    "check, oracle",
    [
        (v_path_identity_check, v_path_violations),
        (mad_recurrence_check, mad_recurrence_violations),
    ],
)
def test_identity_checks_report_a_corrupted_table_entry(check, oracle):
    complex_, corrupted = corrupted_generic3()
    expected = oracle(complex_, corrupted)
    assert expected["violations"]
    result = check(complex_)
    assert result.status == "fail"
    assert result.details == expected


def test_m_vector_at_top_is_distance_row(crossing):
    # Chambers absorb on the left, so DC = D for every chamber C and
    # m(D, D) is the full distance row of D, not a unit vector.
    d = crossing.find((PLUS, PLUS))
    coords = m_vector(crossing, d, d)
    for c, coord in zip(crossing.chambers(), coords):
        assert coord == Polynomial.square_free(4, v(d, c))


def test_m_vector_examples(r1, crossing):
    zero_face = r1.find((ZERO,))
    plus = r1.find((PLUS,))
    coords = m_vector(r1, zero_face, plus)
    expected = [
        Polynomial.square_free(2, v(plus, c))
        if tits_product(r1, zero_face, c) is plus
        else None
        for c in r1.chambers()
    ]
    for coord, want in zip(coords, expected):
        if want is None:
            assert coord.is_zero()
        else:
            assert coord == want
    # the vertex acts as identity, so only C = D contributes
    vertex = crossing.find((ZERO, ZERO))
    top = crossing.find((PLUS, PLUS))
    coords = m_vector(crossing, vertex, top)
    for c, coord in zip(crossing.chambers(), coords):
        if c is top:
            assert coord.is_one()
        else:
            assert coord.is_zero()


def test_mad_recurrence(r1, crossing, generic3):
    assert mad_recurrence_check(r1).status == "pass"
    assert mad_recurrence_check(crossing).status == "pass"
    assert mad_recurrence_check(generic3).status == "pass"


def test_leading_monomial_of_central_apartment_det(crossing, two_pairs):
    # For the apartment around E the determinant's top monomial is the
    # weight of E raised to half the chamber count, up to sign.
    for complex_, face_signs in (
        (crossing, (ZERO, ZERO)),
        (two_pairs, (MINUS, MINUS, ZERO, ZERO)),
    ):
        face = complex_.find(face_signs)
        apartment = central_apartment_around(complex_, face)
        chambers = chambers_in(complex_, apartment)
        det = det_symbolic(varchenko_matrix(chambers))
        mono, coef = Polynomial.of(det).leading_term()
        half = len(chambers) // 2
        expected_mono, _ = (Polynomial.of(weight(face)) ** half).leading_term()
        assert mono == expected_mono
        assert coef == (-1) ** half


def test_zero_substitution_cuts_cross_apartment_entries(two_pairs, crossing):
    for complex_, subset, signs in (
        (two_pairs, (0,), (MINUS,)),
        (crossing, (0,), (PLUS,)),
    ):
        apartment = find_apartment(complex_, subset, signs)
        kill = touching_hyperplanes(complex_, apartment)
        chambers = complex_.chambers()
        inside = {c.id for c in chambers_in(complex_, apartment)}
        matrix = varchenko_matrix(chambers)
        for i, c in enumerate(chambers):
            for j, d in enumerate(chambers):
                if (c.id in inside) != (d.id in inside):
                    entry = Polynomial.square_free(matrix.nvars, matrix.entries[i][j])
                    assert zero_substitution(entry, kill).is_zero()


def test_v_opposite_product_is_separating_weight(crossing, generic3):
    for complex_ in (crossing, generic3):
        nvars = 2 * complex_.arrangement.size
        for c in complex_.chambers():
            for d in complex_.chambers():
                expected = Polynomial.monomial(
                    nvars,
                    {
                        VarId(h, s): 1
                        for h, (sc, sd) in enumerate(zip(c.signs, d.signs))
                        if sc == -sd
                        for s in (PLUS, MINUS)
                    },
                )
                there = Polynomial.square_free(nvars, v(c, d))
                back = Polynomial.square_free(nvars, v(d, c))
                assert there * back == expected


def test_beta_independence_reports_values(two_pairs):
    apartment = find_apartment(two_pairs, (0,), (MINUS,))
    faces = [f for f in faces_in(two_pairs, apartment) if not f.is_chamber]
    betas, mismatches = beta_independence(
        two_pairs, faces, chambers_in(two_pairs, apartment)
    )
    assert not mismatches
    by_hyperplane = {}
    for face in faces:
        if face.dim == 1:
            h = face.zero_set()[0]
            by_hyperplane[h] = by_hyperplane.get(h, 0) + betas[face.id]
    assert by_hyperplane == {1: 2, 2: 2, 3: 3}
