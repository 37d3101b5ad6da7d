"""Sparse multivariate polynomials over the rationals.

Used where the coefficient field has two generators (the leading endpoint
functions of a two-cut expansion).  An ``MPoly`` is a table of integer
numerators over one positive denominator, {exponent tuple: int} / den, with
gcd(den, numerators) = 1 and no zero entry, so equal polynomials have equal
tables and the arithmetic runs on ints alone; ``terms`` is the read-only
{exponents: Fraction} view, in the table's insertion order.  Exact division
(``greedy_div``) divides by the primitive part of the divisor's numerators:
by Gauss's lemma an exact quotient then has integer coefficients, so a
leading coefficient that does not divide proves the division inexact.

``MRatFunc`` deliberately skips gcd reduction — multivariate gcds are
expensive and nothing downstream needs canonical forms, only exact
arithmetic and a reliable equality test, which cross-multiplication provides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Mapping

import mpmath

from .scalars import as_fraction, is_exact, mpf_of

_ZERO = Fraction(0)


class MPoly:
    """Polynomial in ``nvars`` variables: ``nums`` {exponent tuple: int} over ``den``."""

    __slots__ = ("nvars", "den", "nums")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = as_fraction(c)
                if c:
                    if len(exps) != nvars:
                        raise ValueError("exponent tuple has wrong arity")
                    clean[tuple(exps)] = clean.get(tuple(exps), _ZERO) + c
        # over the lcm of the reduced denominators, numerators share no factor with it
        den = lcm(*(c.denominator for c in clean.values()))
        self.nvars, self.den = nvars, den
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items() if c}

    @classmethod
    def _trusted(cls, nvars: int, den: int, nums: dict) -> "MPoly":
        """Wrap numerators over ``den`` > 0, dropping zeros and any factor common
        to den and all numerators; insertion order is kept (``eval`` sums in it)."""
        nums = {e: n for e, n in nums.items() if n}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        out = cls.__new__(cls)
        out.nvars, out.den, out.nums = nvars, den, nums
        return out

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        c = as_fraction(c)
        return cls._trusted(nvars, c.denominator, {(0,) * nvars: c.numerator})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls._trusted(nvars, 1, {tuple(e): 1})

    @property
    def terms(self) -> dict:
        """{exponents: Fraction coefficient}, a fresh dict in insertion order."""
        return {e: Fraction(n, self.den) for e, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

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
        den = lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        out = dict(self.nums) if m1 == 1 else {e: n * m1 for e, n in self.nums.items()}
        for e, n in other.nums.items():
            out[e] = out.get(e, 0) + n * m2
        return MPoly._trusted(self.nvars, den, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly._trusted(self.nvars, self.den, {e: -n for e, n in self.nums.items()})

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
        out: dict[tuple, int] = {}
        get = out.get
        for e1, n1 in self.nums.items():
            for e2, n2 in other.nums.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + n1 * n2
        return MPoly._trusted(self.nvars, self.den * other.den, out)

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
        out: dict[tuple, int] = {}
        for e, n in self.nums.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = n * e[i]
        return MPoly._trusted(self.nvars, self.den, out)

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
        return max((sum(e) for e in self.nums), default=-1)

    def render(self, names=None) -> str:
        terms = self.terms
        if not terms:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e in sorted(terms, key=lambda t: (sum(t), t), reverse=True):
            c = terms[e]
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

    Greedy leading-term division in lex order of p's numerators by the
    primitive part of d's, which for a monomial order succeeds if and only
    if d | p.  An exact quotient is then integral (Gauss's lemma), so a
    leading coefficient that does not divide ends it early.
    """
    content = gcd(*d.nums.values())
    dn = {e: n // content for e, n in d.nums.items()}
    lead = max(dn)
    lc = dn.pop(lead)
    rem, out = dict(p.nums), {}
    while rem:
        e = max(rem)
        q = tuple(a - b for a, b in zip(e, lead))
        if min(q) < 0:
            return None
        c, r = divmod(rem.pop(e), lc)
        if r:
            return None
        out[q] = c
        for de, dc in dn.items():
            ke = tuple(map(add, q, de))
            nc = rem.get(ke, 0) - c * dc
            if nc:
                rem[ke] = nc
            else:
                del rem[ke]
    # p/d = (p.den·p)/d' · d.den/(p.den·content)
    return MPoly._trusted(p.nvars, p.den * content, {e: n * d.den for e, n in out.items()})


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


# The modular image φ: ℚ[x₀, x₁] → F_P[x₀], x₁ ↦ _BSTAR, with which
# ``twocut`` proves most trial divisions fail before dividing over ℚ.
MOD_P = 2**61 - 1
_BSTAR = 0x1C6F_3A5E_92B4_D071
_BPOW = tuple(pow(_BSTAR, k, MOD_P) for k in range(64))


def mod_image(p: MPoly):
    """φ(den·p) of a bivariate p, as a coefficient list in x₀ (lowest first,
    entries not reduced), or None when P divides den.  den is a unit mod P
    otherwise, so this is φ(p) up to that unit, which divisibility ignores."""
    if not p.den % MOD_P:
        return None
    out = [0] * (max((e[0] for e in p.nums), default=-1) + 1)
    for (ea, eb), n in p.nums.items():
        out[ea] += n * (_BPOW[eb] if eb < len(_BPOW) else pow(_BSTAR, eb, MOD_P))
    return out


def swap_vars(p: MPoly) -> MPoly:
    """p with its two variables exchanged."""
    return MPoly._trusted(2, p.den, {(e[1], e[0]): n for e, n in p.nums.items()})


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
        if self.den == other.den:
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
