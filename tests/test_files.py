import tracemalloc
from fractions import Fraction

import pytest

from varchenko.faces import enumerate_faces
from varchenko.files import (
    MAX_DIMENSION,
    ParseError,
    arrangement_digest,
    bundled_text,
    parse_arrangement,
    parse_matrix,
    serialize_arrangement,
    serialize_matrix,
)
from varchenko.varmatrix import varchenko_matrix


def test_arrangement_roundtrip():
    for name in ("r1", "crossing", "generic3", "parallel2",
                 "two_pairs", "r3"):
        text = bundled_text(f"{name}.arr")
        arrangement = parse_arrangement(text)
        canonical = serialize_arrangement(arrangement)
        again = parse_arrangement(canonical)
        assert serialize_arrangement(again) == canonical


def test_parse_rationals_and_comments():
    arrangement = parse_arrangement(
        "# leading comment\n"
        "dim 2\n"
        "1/2 -3 1   # trailing comment\n"
        "\n"
        "0 2/7 -4/5\n"
        "0.5 -1.25 .5\n"
    )
    assert arrangement.size == 3
    assert str(arrangement.hyperplanes[0].normal[0]) == "1/2"
    assert arrangement.hyperplanes[2].normal == (Fraction(1, 2), Fraction(-5, 4))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_arrangement("")
    with pytest.raises(ParseError, match="line 1"):
        parse_arrangement("dimension 2\n1 0 0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_arrangement("dim 2\n1 0 0\n1 0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_arrangement("dim 2\n1 0 x\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_arrangement("dim 1\n1/0 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_arrangement("dim 2\n0 0 1\n")
    # Fraction would expand 1e400000000 into all of its digits first
    for token in ("1e400000000", "1E3", "2.5e-1"):
        with pytest.raises(ParseError, match=f"line 2: invalid rational '{token}'"):
            parse_arrangement(f"dim 2\n1 0 {token}\n")
    # an origin of 999999999 coordinates would take minutes to build
    assert parse_arrangement(f"dim {MAX_DIMENSION}\n").dimension == MAX_DIMENSION
    # int() refuses strings of over 4,300 digits, so the length goes first
    for n in (MAX_DIMENSION + 1, 999999999, "9" * 5000):
        with pytest.raises(ParseError, match="line 1: dimension"):
            parse_arrangement(f"dim {n}\n")
    assert parse_arrangement(f"dim {'0' * 5000}2\n").dimension == 2
    # a superscript passes str.isdigit() but not int()
    with pytest.raises(ParseError, match="line 1: expected 'dim n'"):
        parse_arrangement("dim \u00b2\n")


def test_duplicate_hyperplane_rejected_with_line():
    with pytest.raises(ParseError, match="line 4"):
        parse_arrangement("dim 2\n1 1 1\n1 0 0\n-2 -2 -2\n")


def test_matrix_roundtrip(crossing):
    matrix = varchenko_matrix(crossing.chambers())
    text = serialize_matrix(matrix, crossing.arrangement.size)
    parsed = parse_matrix(text)
    assert parsed.entries == matrix.entries
    assert serialize_matrix(parsed, crossing.arrangement.size) == text


def test_bundled_apartment_matrix_parses():
    matrix = parse_matrix(bundled_text("two_pairs_apartment.vmx"))
    assert matrix.size == 6
    assert matrix.nvars == 8


def test_matrix_parse_errors():
    with pytest.raises(ParseError, match="header"):
        parse_matrix("")
    with pytest.raises(ParseError, match="vmatrix"):
        parse_matrix("matrix 2 1\n")
    with pytest.raises(ParseError, match="entries"):
        parse_matrix("vmatrix 2 1\n1\n1 * h1^+\n1 * h1^-\n")
    bad_diag = "vmatrix 2 1\n1 * h1^+\n1 * h1^+\n1 * h1^-\n1\n"
    with pytest.raises(ParseError, match="diagonal"):
        parse_matrix(bad_diag)
    not_monomial = "vmatrix 2 1\n1\n1 + 1 * h1^+\n1 * h1^-\n1\n"
    with pytest.raises(ParseError, match="monomial"):
        parse_matrix(not_monomial)
    not_squarefree = "vmatrix 2 1\n1\n1 * h1^+^2\n1 * h1^-^2\n1\n"
    with pytest.raises(ParseError, match="square-free"):
        parse_matrix(not_squarefree)
    asymmetric = "vmatrix 2 1\n1\n1 * h1^+\n1 * h1^+\n1\n"
    with pytest.raises(ParseError, match="opposite"):
        parse_matrix(asymmetric)
    for entry, rule in (
        ("0", "monomial"),
        ("2 * h1^+", "square-free"),
        ("-1 * h1^+", "square-free"),
    ):
        with pytest.raises(ParseError, match=rule):
            parse_matrix(f"vmatrix 2 1\n1\n{entry}\n1 * h1^-\n1\n")
    with pytest.raises(ParseError, match="diagonal"):
        parse_matrix("vmatrix 2 1\n2\n1 * h1^+\n1 * h1^-\n1\n")


def test_matrix_header_numbers_of_over_4300_digits():
    nines = "9" * 5000
    with pytest.raises(ParseError, match="line 1: matrix size above the 1 entries"):
        parse_matrix(f"vmatrix {nines} 1\n1\n")
    with pytest.raises(ParseError, match="line 1: more than 10000 hyperplanes"):
        parse_matrix(f"vmatrix 1 {nines}\n1\n")
    matrix = parse_matrix(f"vmatrix {'0' * 5000}1 {'0' * 5000}1\n1\n")
    assert (matrix.size, matrix.nvars) == (1, 2)


def test_matrix_parse_memory_follows_the_file_not_the_header():
    # a grid of 3 + 4 lines has 4 x 5 = 20 chambers; entries are read
    # sparsely, never as an exponent per declared ring variable
    grid = parse_arrangement(
        "dim 2\n" + "".join(f"1 0 {t}\n" for t in range(3))
        + "".join(f"0 1 {t}\n" for t in range(4))
    )
    matrix = varchenko_matrix(enumerate_faces(grid).chambers())
    assert matrix.size == 20
    text = serialize_matrix(matrix, 10_000)
    tracemalloc.start()
    try:
        parsed = parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (parsed.entries, parsed.nvars) == (matrix.entries, 20_000)
    assert peak < 10 * 2**20, peak


def test_one_by_one_matrix():
    matrix = parse_matrix("vmatrix 1 1\n1\n")
    assert matrix.size == 1


def test_digest_is_stable_and_input_sensitive():
    a = parse_arrangement("dim 1\n1 0\n")
    b = parse_arrangement("dim 1\n1 1\n")
    assert arrangement_digest(a) == arrangement_digest(a)
    assert arrangement_digest(a) != arrangement_digest(b)
    assert len(arrangement_digest(a)) == 12
