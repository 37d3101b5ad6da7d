"""Exact univariate polynomials and rational functions over the rationals.

``Poly`` is dense with ``Fraction`` coefficients; it backs everything
univariate in the package (polynomials in the spectral variable, hodograph
polynomials).
``RationalFunc`` is a reduced quotient of two ``Poly``s with a monic
denominator, which makes equality structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

from .scalars import as_fraction, is_exact, mpfs_of

_ZERO = Fraction(0)
_ONE = Fraction(1)


def horner(cs: Sequence, x):
    """Σ cs[i]·x^i by Horner's rule at an mpf x, from coefficients lifted by
    ``mpfs_of``: ``Poly.__call__`` when the lift is made once for many x."""
    acc = mpmath.mpf(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of x**i; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((as_fraction(c),))

    # -- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if is_exact(other):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, RationalFunc):
            return NotImplemented
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a Poly")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if is_exact(other):
            return Poly.const(other)
        return NotImplemented

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division; exact over the rationals."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quot = [_ZERO] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quot), Poly(rem[: other.degree] if other.degree > 0 else ())

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("exact_div: division is not exact")
        return q

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd via the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a * (1 / a.leading())

    def derivative(self, order: int = 1) -> "Poly":
        p = self
        for _ in range(order):
            p = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
        return p

    # -- evaluation and rendering ---------------------------------------
    def __call__(self, x):
        if is_exact(x):
            x = as_fraction(x)
            acc = _ZERO
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        return horner(mpfs_of(self.coeffs, mpmath.mp.dps), x)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"

    def render(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mon = var if i == 1 else f"{var}^{i}"
                term = mon if c == 1 else (f"-{mon}" if c == -1 else f"{c}*{mon}")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


class RationalFunc:
    """Reduced quotient num/den of Polys with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = Poly.one() if den is None else (den if isinstance(den, Poly) else Poly.const(den))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.leading()
            if lead != 1:
                inv = 1 / lead
                num, den = num * inv, den * inv
        self.num, self.den = num, den

    @classmethod
    def const(cls, c) -> "RationalFunc":
        return cls(Poly.const(c))

    @classmethod
    def var(cls) -> "RationalFunc":
        return cls(Poly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunc):
            return other
        if isinstance(other, Poly):
            return RationalFunc(other)
        if is_exact(other):
            return RationalFunc.const(other)
        return NotImplemented

    def __add__(self, other) -> "RationalFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "RationalFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunc":
        if n < 0:
            return RationalFunc(self.den**-n, self.num**-n)
        return RationalFunc(self.num**n, self.den**n)

    def derivative(self) -> "RationalFunc":
        return RationalFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        den = self.den(x)
        if is_exact(x) and den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / den

    def render(self, var: str = "x") -> str:
        if self.den == Poly.one():
            return self.num.render(var)
        return f"({self.num.render(var)})/({self.den.render(var)})"

    def __repr__(self) -> str:
        return f"RationalFunc({self.render()})"


def poly_from_pairs(pairs: Sequence[tuple[int, object]]) -> Poly:
    """Build a Poly from (exponent, coefficient) pairs."""
    if not pairs:
        return Poly.zero()
    n = max(k for k, _ in pairs) + 1
    cs = [_ZERO] * n
    for k, c in pairs:
        cs[k] += as_fraction(c)
    return Poly(cs)
