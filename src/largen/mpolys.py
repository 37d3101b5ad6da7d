"""Sparse multivariate polynomials over the rationals.

Used where the coefficient field has two generators (the leading endpoint
functions of a two-cut expansion).  ``MRatFunc`` deliberately skips gcd
reduction — multivariate gcds are expensive and nothing downstream needs
canonical forms, only exact arithmetic and a reliable equality test, which
cross-multiplication provides.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Mapping

import mpmath

from .scalars import as_fraction, is_exact, mpf_of

_ZERO = Fraction(0)


def _over_common_den(terms: dict) -> tuple:
    """(D, [(exps, c·D)]) with D the lcm of the coefficient denominators."""
    den = 1
    for c in terms.values():
        den = lcm(den, c.denominator)
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


class MPoly:
    """Polynomial in ``nvars`` variables, stored as {exponent tuple: coeff}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = nvars
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = as_fraction(c)
                if c:
                    if len(exps) != nvars:
                        raise ValueError("exponent tuple has wrong arity")
                    clean[tuple(exps)] = clean.get(tuple(exps), _ZERO) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "MPoly":
        """Wrap a table of Fraction coefficients with arity-``nvars`` tuple keys,
        dropping cancelled terms and keeping insertion order (``eval`` sums in it)."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        c = as_fraction(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixing MPolys of different arity")
            return other
        if is_exact(other):
            return MPoly.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, _ZERO) + c
        return MPoly._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "MPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # multiply integer numerators over one common denominator per
        # factor; the exact sums, and so the terms and their order, are those
        # of the term-by-term Fraction products
        den1, ints1 = _over_common_den(self.terms)
        den2, ints2 = _over_common_den(other.terms)
        out: dict[tuple, int] = {}
        for e1, n1 in ints1:
            for e2, n2 in ints2:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + n1 * n2
        den = den1 * den2
        return MPoly._trusted(self.nvars, {e: Fraction(n, den) for e, n in out.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of an MPoly")
        result = MPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def diff(self, i: int) -> "MPoly":
        out: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), _ZERO) + c * e[i]
        return MPoly._trusted(self.nvars, out)

    def eval(self, point):
        """Evaluate at a point of exact or mpf coordinates."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        exact = all(is_exact(v) for v in point)
        acc = None
        for e, c in self.terms.items():
            # keep any mpf on the left: Fraction.__op__(mpf) is NotImplemented
            val = c if exact else mpf_of(c, mpmath.mp.dps)
            for v, k in zip(point, e):
                if k:
                    val = val * v**k
            acc = val if acc is None else acc + val
        if acc is None:
            return _ZERO if exact else mpmath.mpf(0)
        return acc

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def render(self, names=None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mons = [
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e)
                if k
            ]
            mon = "*".join(mons)
            if not mon:
                parts.append(str(c))
            elif c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c}*{mon}")
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"MPoly({self.render()})"


def greedy_div(p: MPoly, d: MPoly):
    """p/d as an MPoly, or None when the division is not exact.

    Greedy leading-term division in lex order; for a monomial order this
    succeeds if and only if d divides p, which is all the callers need.
    """
    lead = max(d.terms)
    lc = d.terms[lead]
    rem, out = dict(p.terms), {}
    while rem:
        e = max(rem)
        q = tuple(a - b for a, b in zip(e, lead))
        if min(q) < 0:
            return None
        c = out[q] = rem.pop(e) / lc
        for de, dc in d.terms.items():
            if de != lead:
                ke = tuple(a + b for a, b in zip(q, de))
                nc = rem.get(ke, _ZERO) - c * dc
                if nc:
                    rem[ke] = nc
                else:
                    del rem[ke]
    return MPoly._trusted(p.nvars, out)


def bareiss_det(rows: list) -> MPoly:
    """Determinant of a square matrix of MPolys by fraction-free (Bareiss)
    elimination, each division by the previous pivot exact."""
    rows = [list(r) for r in rows]
    n, sign, prev = len(rows), 1, MPoly.const(rows[0][0].nvars, 1)
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return prev * 0
        if piv != k:
            rows[k], rows[piv], sign = rows[piv], rows[k], -sign
        top = rows[k]
        for row in rows[k + 1:]:
            for j in range(k + 1, n):
                row[j] = greedy_div(top[k] * row[j] - row[k] * top[j], prev)
        prev = top[k]
    return rows[-1][-1] * sign


class MRatFunc:
    """Quotient of MPolys, kept unreduced; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("MRatFunc with zero denominator")
        if num.is_zero():
            den = MPoly.const(num.nvars, 1)
        self.num, self.den = num, den

    @classmethod
    def const(cls, nvars: int, c) -> "MRatFunc":
        return cls(MPoly.const(nvars, c))

    @classmethod
    def var(cls, nvars: int, i: int) -> "MRatFunc":
        return cls(MPoly.var(nvars, i))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, MRatFunc):
            return other
        if isinstance(other, MPoly):
            return MRatFunc(other)
        if is_exact(other):
            return MRatFunc.const(self.num.nvars, other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other) -> "MRatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return MRatFunc(self.num + other.num, self.den)
        return MRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "MRatFunc":
        return MRatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "MRatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MRatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero MRatFunc")
        return MRatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "MRatFunc":
        if n < 0:
            return MRatFunc(self.den**-n, self.num**-n)
        return MRatFunc(self.num**n, self.den**n)

    def diff(self, i: int) -> "MRatFunc":
        return MRatFunc(
            self.num.diff(i) * self.den - self.num * self.den.diff(i),
            self.den * self.den,
        )

    def eval(self, point):
        den = self.den.eval(point)
        if den == 0:
            raise ZeroDivisionError("pole of MRatFunc at evaluation point")
        return self.num.eval(point) / den

    def render(self, names=None) -> str:
        if self.den == MPoly.const(self.den.nvars, 1):
            return self.num.render(names)
        return f"({self.num.render(names)})/({self.den.render(names)})"

    def __repr__(self):
        return f"MRatFunc({self.render()})"
