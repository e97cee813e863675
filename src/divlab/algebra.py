"""Exact integer polynomial arithmetic: univariate dense polynomials,
plane-curve covers, resultants, discriminants and the critical-value
polynomial of a family.

Univariate polynomials are dense little-endian coefficient tuples over Z.
A cover g(t,u) is stored as a list of polynomials in t indexed by the
power of u.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class AlgebraError(ValueError):
    """Domain error in polynomial arithmetic."""


class DegenerateCoverError(AlgebraError):
    """The cover cannot drive the machinery (no finite critical value,
    or not squarefree in u)."""


class LemmaViolation(RuntimeError):
    """No valid shift exists although the hypotheses hold; indicates an
    implementation bug, not bad input."""


# ---------------------------------------------------------------------------
# dense little-endian coefficient lists over Z: the loops every ring shares

def _trim(a: list[int]) -> list[int]:
    """Drop trailing zeros in place; returns a."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _zmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product over Z, untrimmed and unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _zdivmod(rem: list[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Long division of rem by b != 0 in Z[T], rem overwritten: (quotient,
    remainder of length deg b).  Raises when a step's leading coefficient
    is not a multiple of lc(b), so the division is exact or pseudo."""
    n, lc = len(b) - 1, b[-1]
    q = [0] * max(0, len(rem) - n)
    for i in range(len(rem) - len(b), -1, -1):
        c, m = divmod(rem[i + n], lc)
        if m:
            raise AlgebraError("inexact polynomial division")
        q[i] = c
        if c:
            for j, x in enumerate(b, i):
                rem[j] -= c * x
    return q, rem[:n]


@dataclass(frozen=True)
class IntPoly:
    """Dense univariate polynomial over Z; coeffs[i] is the coefficient of T^i.

    The zero polynomial is the empty tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise AlgebraError("leading coefficient must be nonzero (use IntPoly.of)")

    @staticmethod
    def of(coeffs: Iterable[int]) -> "IntPoly":
        """Build a polynomial from a low-to-high coefficient sequence,
        trimming trailing zeros.  A coefficient that is not an integer
        (a float, a Fraction) raises TypeError."""
        return IntPoly(tuple(operator.index(a) for a in _trim(list(coeffs))))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        if self.is_zero:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, n: int) -> int:
        v = 0
        for a in reversed(self.coeffs):
            v = v * n + a
        return v

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return IntPoly.of(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-a for a in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly.of(_zmul(self.coeffs, other.coeffs))

    def derivative(self) -> "IntPoly":
        return IntPoly.of([i * a for i, a in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """Integer content (gcd of coefficients), 0 for the zero polynomial."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPoly":
        """Divide out the content and normalize the leading coefficient
        to be positive."""
        if self.is_zero:
            raise AlgebraError("zero polynomial has no primitive part")
        c = self.content()
        if self.lc < 0:
            c = -c
        return IntPoly(tuple(a // c for a in self.coeffs))

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact division in Z[T]; raises if the division is not exact."""
        if other.is_zero:
            raise AlgebraError("division by zero polynomial")
        q, rem = _zdivmod(list(self.coeffs), other.coeffs)
        if any(rem):
            raise AlgebraError("inexact polynomial division")
        return IntPoly.of(q)

    def __str__(self) -> str:
        return format_poly(self, "T")

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


def format_poly(f: IntPoly, var: str) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        a = f.coeffs[i]
        if a == 0:
            continue
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        parts.append((sign, body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) * a by b."""
    s = b.lc ** (a.degree - b.degree + 1)
    return IntPoly.of(_zdivmod([c * s for c in a.coeffs], b.coeffs)[1])


def poly_gcd(f: IntPoly, h: IntPoly) -> IntPoly:
    """GCD in Z[T] via the primitive remainder sequence, normalized
    primitive with positive leading coefficient."""
    if f.is_zero and h.is_zero:
        return IntPoly(())
    if f.is_zero:
        return h.primitive_part()
    if h.is_zero:
        return f.primitive_part()
    a, b = f.primitive_part(), h.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, (r.primitive_part() if not r.is_zero else r)
    return a


def resultant(f: IntPoly, h: IntPoly) -> int:
    """Resultant of f and h (Sylvester determinant), computed by the
    subresultant remainder sequence."""
    if f.is_zero or h.is_zero:
        raise AlgebraError("resultant of the zero polynomial is undefined")
    if f.degree == 0 and h.degree == 0:
        return 1
    sign = 1
    a, b = f, h
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
        a, b = b, a
    if b.degree == 0:
        return sign * b.lc ** a.degree
    g, hpow = 1, 1
    while True:
        delta = a.degree - b.degree
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
        r = _pseudo_rem(a, b)
        if r.is_zero:
            return 0
        a, b = b, IntPoly.of([c // (g * hpow**delta) for c in r.coeffs])
        g = a.lc
        if delta > 0:
            hpow = g**delta // hpow ** (delta - 1)
        if b.degree == 0:
            hpow = b.lc ** a.degree // hpow ** (a.degree - 1)
            return sign * hpow


def poly_discriminant(f: IntPoly) -> int:
    """Discriminant (-1)^(d(d-1)/2) * Res(f, f') / lc(f)."""
    d = f.degree
    if d < 1:
        raise AlgebraError("discriminant needs degree >= 1")
    if d == 1:
        return 1
    r = resultant(f, f.derivative())
    s = -1 if (d * (d - 1) // 2) % 2 else 1
    q, m = divmod(s * r, f.lc)
    if m != 0:
        raise AlgebraError("lc(f) does not divide Res(f, f')")
    return q


def squarefree_primitive_part(f: IntPoly) -> IntPoly:
    """f / gcd(f, f'), made primitive with positive leading coefficient.
    Same root set as f, separable."""
    if f.is_zero:
        raise AlgebraError("zero polynomial has no squarefree part")
    if f.degree == 0:
        return IntPoly.of([1])
    g = poly_gcd(f, f.derivative())
    out = f.primitive_part().exact_div(g) if g.degree > 0 else f
    return out.primitive_part()


@dataclass(frozen=True)
class CurveCover:
    """Plane model g(t,u) of a family of number fields: coeffs_u[j] is the
    coefficient of u^j as a polynomial in t.  nu = deg_u g >= 2."""

    coeffs_u: tuple[IntPoly, ...]

    def __post_init__(self):
        if not self.coeffs_u or self.coeffs_u[-1].is_zero:
            raise AlgebraError("leading u-coefficient must be nonzero")
        if self.nu < 2:
            raise AlgebraError("degree in u must be at least 2")

    @staticmethod
    def of(coeffs_u: Sequence[IntPoly]) -> "CurveCover":
        c = list(coeffs_u)
        while c and c[-1].is_zero:
            c.pop()
        # normalize to content 1 across all coefficients
        cont = 0
        for f in c:
            cont = math.gcd(cont, f.content())
        if cont > 1:
            c = [IntPoly.of([a // cont for a in f.coeffs]) for f in c]
        return CurveCover(tuple(c))

    @property
    def nu(self) -> int:
        return len(self.coeffs_u) - 1

    @property
    def lc_u(self) -> IntPoly:
        """Leading coefficient in u, a polynomial in t."""
        return self.coeffs_u[-1]

    def at_t(self, n: int) -> IntPoly:
        """Specialize t := n; returns the polynomial in u (not normalized)."""
        return IntPoly.of([f(n) for f in self.coeffs_u])

    def deg_t(self) -> int:
        return max(f.degree for f in self.coeffs_u)


@functools.lru_cache(maxsize=None)
def discriminant_in_u(cover: CurveCover) -> IntPoly:
    """D(t) = disc_u(g) by specialization at integer points and Lagrange
    interpolation, cached per cover; zero when g is not squarefree in u
    over Q(t).  Where lc_u(n) != 0 and g(n, u) = c*f, D(n) = c^(2nu-2) *
    disc(f) exactly: the discriminant is homogeneous of degree 2nu-2 in
    the coefficients, and g(n, u) keeps degree nu."""
    nu = cover.nu
    bound = cover.deg_t() * (2 * nu - 1) + 1
    points: list[tuple[int, int]] = []
    t0 = 0
    while len(points) < bound:
        if cover.lc_u(t0) != 0:
            spec = cover.at_t(t0)
            points.append((t0, poly_discriminant(spec)))
        t0 = -t0 + (1 if t0 <= 0 else 0)  # 0, 1, -1, 2, -2, ...
    return _interpolate(points)


def _interpolate(points: list[tuple[int, int]]) -> IntPoly:
    """Lagrange interpolation through integer points; the result must have
    integer coefficients."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for xi, yi in points:
        num, den = [1], 1
        for xj, _ in points:
            if xj != xi:
                num = _zmul(num, [-xj, 1])
                den *= xi - xj
        w = Fraction(yi, den)
        for k, c in enumerate(num):
            coeffs[k] += c * w
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AlgebraError("interpolation produced non-integer coefficients")
        out.append(int(c))
    return IntPoly.of(out)


def critical_polynomial(cover: CurveCover) -> IntPoly:
    """The primitive separable polynomial vanishing at the finite critical
    values of the family, over-approximated to include the roots of the
    leading u-coefficient."""
    disc = discriminant_in_u(cover)
    if disc.is_zero:
        raise DegenerateCoverError("cover is not squarefree in u over Q(t)")
    F = squarefree_primitive_part(disc * cover.lc_u)
    if F.degree < 1:
        raise DegenerateCoverError(
            "family has no finite critical value in this model"
        )
    return F


# ---------------------------------------------------------------------------
# text format: integer coefficients, caret powers, e.g. u^2 - t^3 + 2*t - 1

_ATOM = re.compile(r"^(?:(\d+)|([a-zA-Z])(?:\^(\d+))?)$")


class PolyParseError(ValueError):
    """Malformed polynomial text."""


def parse_bivariate(text: str, vars: tuple[str, str] = ("t", "u")) -> dict[tuple[int, int], int]:
    """Parse polynomial text into {(deg_t, deg_u): coefficient}."""
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    out: dict[tuple[int, int], int] = {}
    for term in s.split("+"):
        term = term.strip()
        if not term:
            raise PolyParseError(f"dangling sign in {text!r}")
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:].strip()
        coeff = sign
        degs = [0, 0]
        for atom in term.split("*"):
            atom = atom.strip()
            m = _ATOM.match(atom)
            if not m:
                raise PolyParseError(f"bad term {atom!r} in {text!r}")
            if m.group(1) is not None:
                coeff *= int(m.group(1))
            else:
                v = m.group(2)
                if v not in vars:
                    raise PolyParseError(
                        f"unknown variable {v!r} in {text!r} (expected {vars})"
                    )
                degs[vars.index(v)] += int(m.group(3) or 1)
        key = (degs[0], degs[1])
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v != 0}


def parse_cover(text: str) -> CurveCover:
    """Parse a cover g(t,u) from text in variables t and u."""
    terms = parse_bivariate(text)
    if not terms:
        raise PolyParseError("zero polynomial is not a cover")
    nu = max(j for (_, j) in terms)
    dt = max(i for (i, _) in terms)
    cols = []
    for j in range(nu + 1):
        cols.append(IntPoly.of([terms.get((i, j), 0) for i in range(dt + 1)]))
    return CurveCover.of(cols)


def parse_univariate(text: str, var: str = "T") -> IntPoly:
    """Parse a univariate polynomial; accepts the variable in either case."""
    terms = parse_bivariate(text, vars=(var, var.swapcase()))
    out: dict[int, int] = {}
    for (i, j), c in terms.items():
        out[i + j] = out.get(i + j, 0) + c
    d = max(out) if out else 0
    return IntPoly.of([out.get(i, 0) for i in range(d + 1)])
