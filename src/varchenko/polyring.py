"""Sparse polynomials over Z in the half-space variables h_i^+, h_i^-.

Every hyperplane i (0-based internally, printed 1-based as h1, h2, ...)
contributes two variables. A monomial is a dense tuple of exponents of
length 2*m, variable order h1^+ < h1^- < h2^+ < ..., and terms are kept in
a dict keyed by monomial with nonzero integer coefficients. The term order
used for leading terms and serialization is graded lexicographic.

Text form (bit-exact, round-trips through parse_polynomial): terms appear
in graded-lex ascending order joined by ' + ' or ' - ', each with an
explicit coefficient, e.g. "0", "1", "1 - 1 * h1^+ h1^-",
"2 * h2^+^3 h4^-". Exponent 1 is implicit; higher powers append "^e".
"""

from __future__ import annotations

import re
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
    """Immutable sparse polynomial with exact integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = dict(terms) if terms else {}
        if 0 in self.terms.values():
            self.terms = {m: c for m, c in self.terms.items() if c}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "Polynomial":
        if value == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: int(value)})

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
        return cls(nvars, {tuple(mask >> i & 1 for i in range(nvars)): 1})

    @classmethod
    def monomial(cls, nvars: int, powers, coefficient: int = 1):
        """Single term from {VarId: exponent} powers."""
        expo = [0] * nvars
        for var, e in powers.items():
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if var.index >= nvars:
                raise ValueError(
                    f"variable {var.label()} outside ring with {nvars} slots"
                )
            expo[var.index] += e
        if coefficient == 0:
            return cls(nvars)
        return cls(nvars, {tuple(expo): int(coefficient)})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def leading_term(self):
        """(monomial, coefficient) maximal in graded lex order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        mono = max(self.terms, key=lambda m: (sum(m), m))
        return mono, self.terms[mono]

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"mixing rings with {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            total = out.get(mono, 0) + coef
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(
            self.nvars, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.terms or not other.terms:
            return Polynomial(self.nvars)
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        out: dict = {}
        for mono_a, coef_a in small.items():
            for mono_b, coef_b in large.items():
                key = tuple(x + y for x, y in zip(mono_a, mono_b))
                total = out.get(key, 0) + coef_a * coef_b
                if total:
                    out[key] = total
                else:
                    del out[key]
        return Polynomial(self.nvars, out)

    def scale(self, factor: int) -> "Polynomial":
        if factor == 0:
            return Polynomial(self.nvars)
        return Polynomial(
            self.nvars, {m: c * factor for m, c in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not in the ring")
        result = Polynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

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


def eval_values(poly: Polynomial, values, prime: int) -> int:
    """Value of the polynomial mod prime at `assignment_values` output."""
    total = 0
    for mono, coef in poly.terms.items():
        product = coef % prime
        for i, e in enumerate(mono):
            if e:
                if values[i] is None:
                    raise ValueError(
                        f"assignment misses variable {var_of_index(i).label()}"
                    )
                product = product * pow(values[i], e, prime) % prime
        total = (total + product) % prime
    return total


def eval_mod_p(poly: Polynomial, assignment, prime: int) -> int:
    """Value of the polynomial mod prime at a total {VarId: int} assignment."""
    return eval_values(poly, assignment_values(assignment, poly.nvars, prime), prime)


def weight(face) -> Polynomial:
    """The weight monomial of a non-chamber face: prod h_i^+ h_i^- over A_F,
    the variables of the face's `zero` mask."""
    if face.is_chamber:
        raise ValueError(f"chambers have no weight, got {face!r}")
    return Polynomial.square_free(2 * len(face.signs), face.zero)


# -- text form ------------------------------------------------------------

_VAR_RE = re.compile(r"^h(\d+)\^([+-])(?:\^(\d+))?$")


def _format_vars(mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if not e:
            continue
        label = var_of_index(i).label()
        parts.append(label if e == 1 else f"{label}^{e}")
    return " ".join(parts)


def format_polynomial(poly: Polynomial) -> str:
    """Canonical text: graded-lex ascending terms, explicit coefficients."""
    if not poly.terms:
        return "0"
    ordered = sorted(poly.terms, key=lambda m: (sum(m), m))
    pieces = []
    for k, mono in enumerate(ordered):
        coef = poly.terms[mono]
        vars_part = _format_vars(mono)
        if k == 0:
            mag = coef
        else:
            pieces.append(" + " if coef > 0 else " - ")
            mag = abs(coef)
        if vars_part:
            pieces.append(f"{mag} * {vars_part}")
        else:
            pieces.append(str(mag))
    return "".join(pieces)


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the canonical text form (coefficient `1 *` may be omitted)."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return Polynomial.zero(nvars)
    chunks = re.split(r"\s+([+-])\s+", text)
    result = Polynomial.zero(nvars)
    sign = 1
    for k, chunk in enumerate(chunks):
        if k % 2 == 1:
            sign = 1 if chunk == "+" else -1
            continue
        result = result + _parse_term(chunk, nvars, sign)
    return result


def _parse_term(chunk: str, nvars: int, sign: int) -> Polynomial:
    coef = 1
    vars_text = chunk
    if "*" in chunk:
        coef_text, vars_text = (s.strip() for s in chunk.split("*", 1))
        coef = int(coef_text)
    elif re.fullmatch(r"-?\d+", chunk.strip()):
        return Polynomial.constant(nvars, sign * int(chunk))
    powers: dict = {}
    for token in vars_text.split():
        match = _VAR_RE.match(token)
        if match is None:
            raise ValueError(f"cannot parse variable token {token!r}")
        label = int(match.group(1))
        if label < 1:
            raise ValueError(f"variable index must be >= 1 in {token!r}")
        var = VarId(label - 1, PLUS if match.group(2) == "+" else MINUS)
        exponent = int(match.group(3)) if match.group(3) else 1
        powers[var] = powers.get(var, 0) + exponent
    return Polynomial.monomial(nvars, powers, sign * coef)
