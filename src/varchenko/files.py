"""Arrangement and matrix file formats, with bit-exact serializers.

Arrangement file: `#` starts a comment (full line or trailing). The first
payload line is `dim n`, n at most MAX_DIMENSION; every further payload
line holds n+1 rationals ``a1 ... an b`` (integers, decimals or p/q, no
exponent notation) describing the hyperplane a.x = b, with H+ the side
where a.x > b.

Matrix file: header ``vmatrix <size> <num_hyperplanes>``, then size^2
polynomial entries in row-major order, one per line, in the canonical text
form of the polynomial module, each a square-free monomial with
coefficient 1, kept as its variable mask. Entries and the factors of an
expected product are read as sparse monomials, so their cost follows the
text, not the header. The header may still declare at most MAX_HYPERPLANES,
since the modular route draws a value per declared variable.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from importlib.resources import files as _resource_files

from .geometry import Hyperplane, Arrangement
from .polyring import read_terms
from .varmatrix import VMatrix

MAX_HYPERPLANES = 10_000
MAX_DIMENSION = 10_000


def bundled_text(name: str) -> str:
    """Contents of one of the example files shipped with the package."""
    return (_resource_files("varchenko") / "data" / name).read_text()


class ParseError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _payload_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _parse_rational(token, line_number) -> Fraction:
    try:
        if "e" in token.lower():
            # exponent notation: Fraction would expand 1e400000000 digit by digit
            raise ValueError(token)
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_number, f"invalid rational {token!r}") from None


def _header_number(token: str, line_number, limit: int, too_large: str) -> int:
    """The header number of a digit string, at most `limit`. Its length is
    checked first, since int() refuses strings of over 4,300 digits."""
    digits = token.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise ParseError(line_number, too_large)
    return int(digits)


def parse_arrangement(text: str) -> Arrangement:
    lines = list(_payload_lines(text))
    if not lines:
        raise ParseError(1, "missing 'dim n' header")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "dim" or not parts[1].isdecimal():
        raise ParseError(header_no, f"expected 'dim n', got {header!r}")
    n = _header_number(
        parts[1], header_no, MAX_DIMENSION,
        f"dimension above the supported {MAX_DIMENSION}",
    )
    if n < 1:
        raise ParseError(header_no, "dimension must be positive")

    hyperplanes = []
    seen = {}
    for number, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n + 1:
            raise ParseError(
                number,
                f"expected {n + 1} rationals (a1..an b), got {len(tokens)}",
            )
        values = [_parse_rational(t, number) for t in tokens]
        try:
            hyperplane = Hyperplane(values[:n], values[n])
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
        key = hyperplane.normalized_key()
        if key in seen:
            raise ParseError(
                number,
                f"duplicate hyperplane (same subspace as line {seen[key]})",
            )
        seen[key] = number
        hyperplanes.append(hyperplane)
    return Arrangement(n, hyperplanes)


def serialize_arrangement(arrangement: Arrangement) -> str:
    lines = [f"dim {arrangement.dimension}"]
    for h in arrangement.hyperplanes:
        coeffs = list(h.normal) + [h.offset]
        lines.append(" ".join(str(c) for c in coeffs))
    return "\n".join(lines) + "\n"


def arrangement_digest(arrangement: Arrangement) -> str:
    """Short stable hash identifying the arrangement in reports."""
    canonical = serialize_arrangement(arrangement)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def parse_matrix(text: str) -> VMatrix:
    lines = list(_payload_lines(text))
    if not lines:
        raise ParseError(1, "missing 'vmatrix <size> <num_hyperplanes>' header")
    header_no, header = lines[0]
    parts = header.split()
    if (
        len(parts) != 3
        or parts[0] != "vmatrix"
        or not parts[1].isdecimal()
        or not parts[2].isdecimal()
    ):
        raise ParseError(
            header_no, f"expected 'vmatrix <size> <num_hyperplanes>', got {header!r}"
        )
    body = lines[1:]
    # size^2 entries must follow, so no size above their count matches
    size = _header_number(
        parts[1], header_no, len(body),
        f"matrix size above the {len(body)} entries found",
    )
    num_hyperplanes = _header_number(
        parts[2], header_no, MAX_HYPERPLANES,
        f"more than {MAX_HYPERPLANES} hyperplanes declared",
    )
    if size < 1:
        raise ParseError(header_no, "matrix size must be positive")
    if len(body) != size * size:
        raise ParseError(
            header_no,
            f"expected {size * size} entries, found {len(body)}",
        )
    nvars = 2 * num_hyperplanes
    terms = []
    for number, chunk in body:
        try:
            terms.append(read_terms(chunk, nvars))
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
    try:
        entries = [
            [_entry_mask(terms[r * size + c], r, c) for c in range(size)]
            for r in range(size)
        ]
        matrix = VMatrix(list(range(size)), entries, nvars)
        matrix.validate()
    except ValueError as exc:
        raise ParseError(header_no, f"not a distance matrix: {exc}") from None
    return matrix


def _entry_mask(terms, r, c) -> int:
    """The variable mask of entry (r, c), given as `read_terms` output,
    which must be 1 on the diagonal and a square-free monomial with
    coefficient 1 everywhere."""
    if r == c and terms != [(1, ())]:
        raise ValueError(f"diagonal entry ({r},{r}) is not 1")
    if len(terms) != 1:
        raise ValueError(f"off-diagonal entry ({r},{c}) is not a monomial")
    ((coef, mono),) = terms
    if coef != 1 or any(e > 1 for _, e in mono):
        raise ValueError(f"entry ({r},{c}) must be square-free with coefficient 1")
    return sum(1 << i for i, _ in mono)


def serialize_matrix(matrix: VMatrix, num_hyperplanes: int) -> str:
    lines = [f"vmatrix {matrix.size} {num_hyperplanes}"]
    lines += [text for row in matrix.entry_texts() for text in row]
    return "\n".join(lines) + "\n"
