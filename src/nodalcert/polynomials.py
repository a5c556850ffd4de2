"""Homogeneous polynomials with exact rational coefficients.

A polynomial is a sparse map from degree-k monomials to nonzero Fractions,
together with its ambient marker n and an explicit degree tag (so the zero
polynomial still knows which graded piece it lives in). All arithmetic is
exact; prime-field reduction happens only inside the linear-algebra engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import MixedDegree, ParseError, UnknownVariable
from .monomials import Exponents, monomial_rank_rows, space_dim

Scalar = Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact (int or Fraction), got {type(value)!r}")


@dataclass(frozen=True, eq=True)
class HomogeneousPolynomial:
    """Immutable sparse homogeneous polynomial over Q."""

    n: int
    degree: int
    terms: Mapping[Exponents, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for expo, coeff in self.terms.items():
            if len(expo) != self.n + 1:
                raise ValueError(f"exponent tuple {expo} has wrong length for n={self.n}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            if sum(expo) != self.degree:
                raise ValueError(
                    f"term {expo} has degree {sum(expo)}, polynomial is tagged degree {self.degree}"
                )
            if not isinstance(coeff, Fraction) or coeff == 0:
                raise ValueError("stored coefficients must be nonzero Fractions")

    # -- construction -----------------------------------------------------

    @classmethod
    def make(cls, n: int, degree: int, terms: Mapping[Exponents, Fraction | int]) -> "HomogeneousPolynomial":
        """Build from any exact mapping, dropping zero coefficients."""
        clean = {
            tuple(expo): _as_fraction(c)
            for expo, c in terms.items()
            if _as_fraction(c) != 0
        }
        return cls(n=n, degree=degree, terms=clean)

    @classmethod
    def zero(cls, n: int, degree: int) -> "HomogeneousPolynomial":
        return cls(n=n, degree=degree, terms={})

    @classmethod
    def monomial(cls, n: int, expo: Exponents, coeff: Fraction | int = 1) -> "HomogeneousPolynomial":
        expo = tuple(expo)
        return cls.make(n, sum(expo), {expo: coeff})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, expo: Exponents) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in the session monomial order (descending lex)."""
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    # -- arithmetic -------------------------------------------------------

    def _binop(self, other: "HomogeneousPolynomial", sign: int) -> "HomogeneousPolynomial":
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            raise ValueError("degrees differ")
        degree = other.degree if self.is_zero else self.degree
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            new = out.get(expo, Fraction(0)) + sign * coeff
            if new == 0:
                out.pop(expo, None)
            else:
                out[expo] = new
        return HomogeneousPolynomial(self.n, degree, out)

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self._binop(other, +1)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self._binop(other, -1)

    def scale(self, c: Fraction | int) -> "HomogeneousPolynomial":
        c = _as_fraction(c)
        if c == 0:
            return HomogeneousPolynomial.zero(self.n, self.degree)
        return HomogeneousPolynomial(
            self.n, self.degree, {e: c * v for e, v in self.terms.items()}
        )

    def __mul__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        degree = self.degree + other.degree
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(expo, Fraction(0)) + c1 * c2
                if new == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = new
        return HomogeneousPolynomial(self.n, degree, out)

    def shift(self, expo: Exponents) -> "HomogeneousPolynomial":
        """Multiply by the monomial x^expo."""
        expo = tuple(expo)
        return HomogeneousPolynomial(
            self.n,
            self.degree + sum(expo),
            {tuple(a + b for a, b in zip(e, expo)): c for e, c in self.terms.items()},
        )

    def power(self, e: int) -> "HomogeneousPolynomial":
        if e < 0:
            raise ValueError("negative power")
        result = HomogeneousPolynomial.monomial(self.n, (0,) * (self.n + 1))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- evaluation -------------------------------------------------------

    def evaluate(self, coords: Sequence[Fraction | int]) -> Fraction:
        if len(coords) != self.n + 1:
            raise ValueError("coordinate count mismatch")
        coords = [_as_fraction(c) for c in coords]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            value = coeff
            for c, e in zip(coords, expo):
                if e:
                    value *= c**e
            total += value
        return total

    # -- rendering --------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        pieces: list[str] = []
        for expo, coeff in self.sorted_terms():
            vars_part = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(expo) if e
            )
            mag = abs(coeff)
            if not vars_part:
                body = str(mag)
            elif mag == 1:
                body = vars_part
            else:
                body = f"{mag}*{vars_part}"
            sign = "-" if coeff < 0 else "+"
            pieces.append(f"{sign} {body}" if pieces else (f"-{body}" if coeff < 0 else body))
        return " ".join(pieces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HomogeneousPolynomial(n={self.n}, degree={self.degree}, {self.to_text()!r})"


# -- calculus -------------------------------------------------------------


def partial_derivatives(f: HomogeneousPolynomial) -> list[HomogeneousPolynomial]:
    """All n+1 first partials, each homogeneous of degree d-1.

    Constants are rejected: differentiating degree 0 is a caller bug here.
    """
    if f.degree < 1:
        raise ValueError("partial_derivatives needs degree >= 1")
    out = []
    for i in range(f.n + 1):
        terms: dict[Exponents, Fraction] = {}
        for expo, coeff in f.terms.items():
            e = expo[i]
            if e == 0:
                continue
            new = list(expo)
            new[i] = e - 1
            terms[tuple(new)] = coeff * e
        out.append(HomogeneousPolynomial(f.n, f.degree - 1, terms))
    return out


def euler_combination(f: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Sum x_i * df/dx_i; equals d*f for homogeneous f (exact self-test)."""
    partials = partial_derivatives(f)
    total = HomogeneousPolynomial.zero(f.n, f.degree)
    for i, g in enumerate(partials):
        unit = [0] * (f.n + 1)
        unit[i] = 1
        total = total + g.shift(tuple(unit))
    return total


def compose_linear(f: HomogeneousPolynomial, matrix: Sequence[Sequence[Fraction | int]]) -> HomogeneousPolynomial:
    """Substitute x_i -> sum_j matrix[i][j] * x_j (an exact linear change)."""
    n = f.n
    if len(matrix) != n + 1 or any(len(row) != n + 1 for row in matrix):
        raise ValueError("matrix must be (n+1) x (n+1)")
    linear_forms = []
    for row in matrix:
        terms = {}
        for j, c in enumerate(row):
            c = _as_fraction(c)
            if c != 0:
                expo = [0] * (n + 1)
                expo[j] = 1
                terms[tuple(expo)] = c
        linear_forms.append(HomogeneousPolynomial(n, 1, terms))
    result = HomogeneousPolynomial.zero(n, f.degree)
    for expo, coeff in f.terms.items():
        piece = HomogeneousPolynomial.monomial(n, (0,) * (n + 1), coeff)
        for i, e in enumerate(expo):
            if e:
                piece = piece * linear_forms[i].power(e)
        result = result + piece
    return result


# -- parsing --------------------------------------------------------------

_TERM_SPLIT = re.compile(r"([+-]?)([^+-]+)")
_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")
_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, n: int) -> HomogeneousPolynomial:
    """Parse the input grammar: terms joined by + or -, each term an optional
    integer or fraction coefficient followed by ``*``-separated ``x<i>^<e>``
    factors. Whitespace is ignored; ``**`` is accepted as a synonym for ``^``.
    """
    compact = re.sub(r"\s+", "", text).replace("**", "^")
    if not compact:
        raise ParseError("empty polynomial text")
    consumed = 0
    raw_terms: list[tuple[int, str]] = []
    for match in _TERM_SPLIT.finditer(compact):
        if match.start() != consumed:
            raise ParseError(f"unparsable fragment at position {consumed} in {text!r}")
        consumed = match.end()
        sign = -1 if match.group(1) == "-" else 1
        raw_terms.append((sign, match.group(2)))
    if consumed != len(compact) or not raw_terms:
        raise ParseError(f"unparsable polynomial text {text!r}")

    parsed: list[tuple[Exponents, Fraction]] = []
    degrees: set[int] = set()
    for sign, body in raw_terms:
        coeff = Fraction(sign)
        expo = [0] * (n + 1)
        saw_zero_coeff = False
        for factor in body.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {body!r}")
            cm = _COEFF_RE.match(factor)
            if cm:
                num = int(cm.group(1))
                den = int(cm.group(2)) if cm.group(2) else 1
                if den == 0:
                    raise ParseError(f"zero denominator in {factor!r}")
                if num == 0:
                    saw_zero_coeff = True
                else:
                    coeff *= Fraction(num, den)
                continue
            vm = _VAR_RE.match(factor)
            if vm:
                idx = int(vm.group(1))
                if idx > n:
                    raise UnknownVariable(f"variable x{idx} exceeds ambient n={n}")
                expo[idx] += int(vm.group(2)) if vm.group(2) else 1
                continue
            raise ParseError(f"bad factor {factor!r} in term {body!r}")
        degrees.add(sum(expo))
        if saw_zero_coeff:
            continue
        parsed.append((tuple(expo), coeff))

    if len(degrees) > 1:
        raise MixedDegree(f"terms of degrees {sorted(degrees)} in one polynomial")
    degree = degrees.pop()
    terms: dict[Exponents, Fraction] = {}
    for expo, coeff in parsed:
        new = terms.get(expo, Fraction(0)) + coeff
        if new == 0:
            terms.pop(expo, None)
        else:
            terms[expo] = new
    return HomogeneousPolynomial(n, degree, terms)


def polynomial_vector(f: HomogeneousPolynomial) -> list[Fraction]:
    """Exact coordinates of f over the session basis of its graded piece."""
    vec = [Fraction(0)] * space_dim(f.n, f.degree)
    for pos, coeff in zip(monomial_rank_rows(list(f.terms), f.n, f.degree).tolist(), f.terms.values()):
        vec[pos] = coeff
    return vec


def common_denominator_scale(polys: Iterable[HomogeneousPolynomial]) -> int:
    """Least common multiple of all coefficient denominators (>= 1)."""
    from math import lcm

    scale = 1
    for poly in polys:
        for coeff in poly.terms.values():
            scale = lcm(scale, coeff.denominator)
    return scale
