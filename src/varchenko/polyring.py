"""The text form of polynomials over Z in the half-space variables h_i^+,
h_i^-, and the Polynomial value that the library returns and prints.

Hyperplane i (0-based, printed 1-based as h1, h2, ...) gives the variables
h_i^+ and h_i^- the indices 2i and 2i + 1, the bits of a `Face.half` mask.
A monomial is an exponent tuple of length nvars; a Polynomial maps
exponent tuples to nonzero coefficients. Only this module reads or writes
the text form, and it does no arithmetic: the library computes on masks
and packed keys, and the tests keep a ring of their own.

Text form (bit-exact, round-trips through parse_polynomial): terms in
graded-lex ascending order (degree, then exponent tuple) joined by ' + ' or
' - ', each with an explicit coefficient, e.g. "0", "1", "1 - 1 * h1^+
h1^-", "2 * h2^+^3 h4^-". Exponent 1 is implicit; higher powers append "^e".
"""

from __future__ import annotations

import re
from itertools import compress, count, islice
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
    {exponent tuple: coefficient}."""

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


def assignment_values(assignment, nvars: int, prime: int):
    """A {VarId: int} assignment as a list indexed by variable, reduced mod
    prime; None where a variable is unassigned."""
    values = [None] * nvars
    for var, v in assignment.items():
        if var.index < nvars:
            values[var.index] = v % prime
    return values


def nonzero_indices(mono):
    """The indices of the nonzero exponents of an exponent tuple, lowest
    first; the scan stops at the last of them."""
    return islice(compress(count(), mono), len(mono) - mono.count(0))


def mask_exponents(mask: int, nvars: int) -> tuple:
    """The exponent tuple of the square-free monomial of a variable mask."""
    return tuple(mask >> i & 1 for i in range(nvars))


def weight(face) -> Polynomial:
    """The weight monomial of a non-chamber face: prod h_i^+ h_i^- over A_F,
    the variables of the face's `zero` mask."""
    if face.is_chamber:
        raise ValueError(f"chambers have no weight, got {face!r}")
    nvars = 2 * len(face.signs)
    return Polynomial(nvars, {mask_exponents(face.zero, nvars): 1})


# -- printing ---------------------------------------------------------------


def _graded_lex(term):
    """Sort key of a (coefficient, {variable index: exponent}) term that
    orders it as graded lex orders exponent tuples: by degree, then by the
    exponent at the first index where two tuples differ."""
    powers = sorted(term[1].items())
    return sum(e for _, e in powers), [(-i, e) for i, e in powers]


def _format_term(coef: int, powers) -> str:
    parts = [
        var_of_index(i).label() + (f"^{e}" if e > 1 else "")
        for i, e in sorted(powers.items())
    ]
    return f"{coef} * {' '.join(parts)}" if parts else str(coef)


def format_terms(terms) -> str:
    """Canonical text of [(coefficient, {variable index: exponent})] terms
    with distinct monomials, the inverse of `read_terms`; it reads only the
    variables that occur."""
    if not terms:
        return "0"
    (coef, powers), *rest = sorted(terms, key=_graded_lex)
    pieces = [_format_term(coef, powers)]
    for coef, powers in rest:
        pieces += [" + " if coef > 0 else " - ", _format_term(abs(coef), powers)]
    return "".join(pieces)


def format_polynomial(poly: Polynomial) -> str:
    """Canonical text of a Polynomial; see `format_terms`."""
    return format_terms([(c, _powers(m)) for m, c in poly.terms.items()])


def format_monomial(mono) -> str:
    """Canonical text of the monomial of an exponent tuple, coefficient 1."""
    return _format_term(1, _powers(mono))


def _powers(mono) -> dict:
    return {i: mono[i] for i in nonzero_indices(mono)}


# -- parsing ----------------------------------------------------------------

_VAR_RE = re.compile(r"^h(\d+)\^([+-])(?:\^(\d+))?$")


def read_terms(text: str, nvars: int):
    """The terms of the text form as [(coefficient, {variable index:
    exponent})], like terms merged and zero terms dropped; the coefficient
    `1 *` may be omitted. Its size follows the text, not nvars."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    chunks = re.split(r"\s+([+-])\s+", text)
    merged: dict = {}
    for sign, chunk in zip(["+", *chunks[1::2]], chunks[::2]):
        coef, powers = _read_term(chunk, nvars)
        key = tuple(sorted(powers.items()))
        merged[key] = merged.get(key, 0) + (coef if sign == "+" else -coef)
    return [(coef, dict(key)) for key, coef in merged.items() if coef]


def _read_term(chunk: str, nvars: int):
    head, star, tail = chunk.partition("*")
    if not star and re.fullmatch(r"-?\d+", chunk.strip()):
        return int(chunk), {}
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
    return coef, {i: e for i, e in powers.items() if e}


def exponent_tuple(powers, nvars: int) -> tuple:
    """The exponent tuple of a {variable index: exponent} monomial."""
    mono = [0] * nvars
    for i, e in powers.items():
        mono[i] = e
    return tuple(mono)


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the canonical text form (coefficient `1 *` may be omitted)."""
    return Polynomial(
        nvars, {exponent_tuple(p, nvars): c for c, p in read_terms(text, nvars)}
    )
