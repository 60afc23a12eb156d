"""The text form of polynomials over Z in the half-space variables h_i^+,
h_i^-, and the Polynomial value that the library returns and prints.

Hyperplane i (0-based, printed 1-based as h1, h2, ...) gives the variables
h_i^+ and h_i^- the indices 2i and 2i + 1, the bits of a `Face.half` mask.
A monomial is a tuple of (variable index, exponent) pairs, indices
increasing and exponents positive, with () for 1, so its size follows the
variables that occur, not the ring; a Polynomial maps monomials to nonzero
coefficients. Only this module reads or writes the text form, and it does
no arithmetic: the library computes on masks and packed keys, and the tests
keep a ring of their own.

Text form (bit-exact, round-trips through parse_polynomial): terms in
graded-lex ascending order (degree, then exponents with h1^+ most
significant) joined by ' + ' or ' - ', each with an explicit coefficient,
e.g. "0", "1", "1 - 1 * h1^+ h1^-", "2 * h2^+^3 h4^-". Exponent 1 is
implicit; higher powers append "^e".
"""

from __future__ import annotations

import re
from functools import cache
from itertools import starmap
from typing import NamedTuple

from .geometry import MINUS, PLUS


class VarId(NamedTuple):
    """One ring variable: a hyperplane index and a half-space sign."""

    hyperplane: int
    sign: int

    @property
    def index(self) -> int:
        return 2 * self.hyperplane + (0 if self.sign == PLUS else 1)

    def label(self) -> str:
        return f"h{self.hyperplane + 1}^{'+' if self.sign == PLUS else '-'}"


def var_of_index(index: int) -> VarId:
    return VarId(index // 2, PLUS if index % 2 == 0 else MINUS)


class Polynomial:
    """Immutable sparse polynomial with exact integer coefficients, as
    {monomial: coefficient} in a ring of `nvars` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {m: c for m, c in dict(terms or {}).items() if c}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def set_bits(mask: int):
    """The indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_monomial(mask: int) -> tuple:
    """The square-free monomial of a variable mask."""
    return tuple((i, 1) for i in set_bits(mask))


def weight(face) -> Polynomial:
    """The weight monomial of a non-chamber face: prod h_i^+ h_i^- over A_F,
    the variables of the face's `zero` mask."""
    if face.is_chamber:
        raise ValueError(f"chambers have no weight, got {face!r}")
    return Polynomial(2 * len(face.signs), {mask_monomial(face.zero): 1})


# -- printing ---------------------------------------------------------------


def lex_key(mono):
    """Sort key of a monomial that orders it as lex orders exponent vectors,
    h1^+ most significant: by the exponent at the first variable where two
    monomials differ, a variable that is absent having exponent 0."""
    return [(-i, e) for i, e in mono]


@cache  # each power of a variable is written once
def _power(i: int, e: int) -> str:
    return var_of_index(i).label() + (f"^{e}" if e > 1 else "")


def format_monomial(mono, coef: int = 1) -> str:
    """Canonical text of a term, coefficient 1 by default."""
    return f"{coef} * {' '.join(starmap(_power, mono))}" if mono else str(coef)


def format_terms(terms) -> str:
    """Canonical text of [(coefficient, monomial)] terms with distinct
    monomials, the inverse of `read_terms`. Terms sort by degree, then by
    their exponents packed into one int, variable i at field (top - i) * w
    of w bits, wide enough that no field carries: the order of `lex_key`."""
    if not terms:
        return "0"
    top = max((mono[-1][0] for _, mono in terms if mono), default=0)
    w = max((e for _, mono in terms for _, e in mono), default=0).bit_length()

    def graded_lex(term):
        mono = term[1]
        return sum(e for _, e in mono), sum(e << (top - i) * w for i, e in mono)

    (coef, mono), *rest = sorted(terms, key=graded_lex)
    pieces = [format_monomial(mono, coef)]
    for coef, mono in rest:
        pieces += [" + " if coef > 0 else " - ", format_monomial(mono, abs(coef))]
    return "".join(pieces)


def format_polynomial(poly: Polynomial) -> str:
    """Canonical text of a Polynomial; see `format_terms`."""
    return format_terms([(c, m) for m, c in poly.terms.items()])


# -- parsing ----------------------------------------------------------------

_VAR_RE = re.compile(r"^h(\d+)\^([+-])(?:\^(\d+))?$")


def read_terms(text: str, nvars: int):
    """The terms of the text form as [(coefficient, monomial)], like terms
    merged and zero terms dropped; the coefficient `1 *` may be omitted.
    Its size follows the text, not nvars."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    chunks = re.split(r"\s+([+-])\s+", text)
    merged: dict = {}
    for sign, chunk in zip(["+", *chunks[1::2]], chunks[::2]):
        coef, mono = _read_term(chunk, nvars)
        merged[mono] = merged.get(mono, 0) + (coef if sign == "+" else -coef)
    return [(coef, mono) for mono, coef in merged.items() if coef]


def _read_term(chunk: str, nvars: int):
    head, star, tail = chunk.partition("*")
    if not star and re.fullmatch(r"-?\d+", chunk.strip()):
        return int(chunk), ()
    coef, vars_text = (int(head.strip()), tail) if star else (1, chunk)
    powers: dict = {}
    for token in vars_text.split():
        match = _VAR_RE.match(token)
        if match is None:
            raise ValueError(f"cannot parse variable token {token!r}")
        label = int(match.group(1))
        if label < 1:
            raise ValueError(f"variable index must be >= 1 in {token!r}")
        var = VarId(label - 1, PLUS if match.group(2) == "+" else MINUS)
        if var.index >= nvars:
            raise ValueError(f"variable {var.label()} outside ring with {nvars} slots")
        exponent = int(match.group(3)) if match.group(3) else 1
        powers[var.index] = powers.get(var.index, 0) + exponent
    return coef, tuple(sorted((i, e) for i, e in powers.items() if e))


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the canonical text form (coefficient `1 *` may be omitted)."""
    return Polynomial(nvars, {m: c for c, m in read_terms(text, nvars)})
