"""Exact univariate polynomials and rational functions over the rationals.

``Poly`` backs everything univariate in the package (polynomials in the
spectral variable, hodograph polynomials).  It is an ``mpolys.IntTable``, as
are ``MPoly`` and ``DiffPoly``: integer numerators {power: int} over one
positive denominator, in lowest terms, so equal polynomials have equal
tables, multiplied by ``IntTable``'s key-sum product; a one-variable
``MPoly`` has this very table, so the two convert by sharing it.  ``coeffs``
is the read-only dense ``Fraction`` view.  Division, gcds and Sturm
sequences run on the numerators alone, by pseudo-division (Knuth, TAOCP
Vol. 2, §4.6.1): a remainder comes back as a positive multiple of the
Euclidean one, in primitive form, so no fraction is formed in the loop and
every sign is kept.
``RationalFunc`` is the ``mpolys.Quotient`` of two ``Poly``s in its reduced
normalisation (module notes there).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import mpmath

from .mpolys import IntTable, MPoly, Quotient
from .scalars import as_fraction, is_exact, mpfs_of


def horner(cs: Sequence, x):
    """Σ cs[i]·x^i by Horner's rule at an mpf x, from coefficients lifted by
    ``mpfs_of``: ``Poly.__call__`` when the lift is made once for many x."""
    acc = mpmath.mpf(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _pseudo_divide(a: list, b: list) -> tuple[int, list, list]:
    """(m, q, r) with m·a = q·b + r over the integers, m > 0 and r shorter
    than b, for coefficient lists lowest first.  Each step scales by
    |lc(b)| over its gcd with the term it cancels, so a divisor whose
    leading coefficient divides leaves m = 1."""
    lc, n = b[-1], len(b) - 1
    rem, q, m = list(a), [0] * max(len(a) - n, 0), 1
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + n]
        if not c:
            continue
        g = gcd(c, lc)
        t = abs(lc) // g
        u = c // g if lc > 0 else -c // g
        if t != 1:
            m *= t
            q = [t * v for v in q]
            rem = [t * v for v in rem[: k + n]]
        q[k] = u
        for j in range(n):
            rem[k + j] -= u * b[j]
        del rem[k + n :]
    return m, q, rem[:n]


class Poly(IntTable):
    """Univariate polynomial: numerators ``nums`` {power: int} over ``den``.

    ``coeffs[i]`` is the coefficient of x**i; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("_ints",)

    def __init__(self, coeffs: Iterable = ()):
        self._set_terms(dict(enumerate(map(as_fraction, coeffs))))

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

    _scalar = const

    # -- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self._dense()) - 1

    @property
    def coeffs(self) -> tuple:
        """(c_0, .., c_degree) as Fractions."""
        return tuple(Fraction(n, self.den) for n in self._dense())

    def _dense(self) -> tuple:
        """(n_0, .., n_degree), made on first use: a Poly does not change."""
        try:
            return self._ints
        except AttributeError:
            get = self.nums.get
            self._ints = tuple(get(i, 0) for i in range(max(self.nums, default=-1) + 1))
            return self._ints

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[self.degree]

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.nums.get(k, 0), self.den)

    # -- arithmetic ----------------------------------------------------
    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division; exact over the rationals.  With A, B the
        numerators over a, b and m·A = Q·B + R, self = (Q·b/(m·a))·other + R/(m·a)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m, q, r = _pseudo_divide(self._dense(), other._dense())
        den = m * self.den
        return (Poly._trusted(den, {i: v * other.den for i, v in enumerate(q)}),
                Poly._trusted(den, dict(enumerate(r))))

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("exact_div: division is not exact")
        return q

    def prem(self, other: "Poly") -> "Poly":
        """self mod other times a positive rational, with coprime integer
        coefficients: the primitive pseudo-remainder, of the Euclidean
        remainder's sign at every point."""
        r = _pseudo_divide(self._dense(), other._dense())[2]
        g = gcd(*r)
        return Poly._trusted(1, {i: v // g for i, v in enumerate(r) if v})

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd, by Euclid's algorithm on primitive pseudo-remainders."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.prem(b)
        if a.is_zero():
            return a
        return a * (1 / a.leading())

    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("negative derivative order")
        p = self
        for _ in range(order):
            p = Poly._trusted(p.den, {i - 1: i * n for i, n in p.nums.items() if i})
        return p

    # -- evaluation and rendering ---------------------------------------
    def numerator_at(self, x: Fraction) -> int:
        """den·v^d·p(u/v) for x = u/v with v > 0 and d the degree: an integer
        of p(x)'s sign, by Horner over the integers."""
        u, v = x.numerator, x.denominator
        acc, w = 0, 1
        for n in reversed(self._dense()):
            acc = acc * u + n * w
            w *= v
        return acc

    def __call__(self, x):
        if is_exact(x):
            x = as_fraction(x)
            return Fraction(self.numerator_at(x), self.den * x.denominator ** max(self.degree, 0))
        return horner(mpfs_of(self.coeffs, mpmath.mp.dps), x)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"

    def render(self, var: str = "x") -> str:
        """Highest power first, as the one-variable ``MPoly`` renders."""
        return MPoly._trusted(1, self.den, self.nums).render([var])


class RationalFunc(Quotient):
    """A ``Quotient`` of Polys in lowest terms with a monic denominator, so
    equal functions have equal parts."""

    __slots__ = ()

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

    def __hash__(self):
        # a polynomial hashes as the Poly (or the exact constant) it equals
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    # bound here, not inherited: the benchmark's spans read the class __dict__
    __add__ = __radd__ = Quotient.__add__
    __sub__, __rsub__ = Quotient.__sub__, Quotient.__rsub__
    __mul__ = __rmul__ = Quotient.__mul__
    __truediv__, __rtruediv__ = Quotient.__truediv__, Quotient.__rtruediv__
    __neg__, __pow__ = Quotient.__neg__, Quotient.__pow__

    def derivative(self) -> "RationalFunc":
        return self._quotient_rule(Poly.derivative)

    def __call__(self, x):
        den = self.den(x)
        if is_exact(x) and den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / den
