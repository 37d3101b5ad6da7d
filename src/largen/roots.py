"""Real root finding for exact polynomials.

Roots are isolated exactly, by Sturm sequences of primitive pseudo-remainders
whose signs are taken on ``Poly``'s integer numerators, refined with
bisection/Newton in mpmath, and reported with their multiplicities from a
Yun squarefree decomposition.  Roots that are in fact rational are detected
by the rational root theorem plus an exact check, so downstream code can
stay in exact arithmetic whenever the data allows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

import mpmath

from .polys import Poly, horner
from .scalars import DEFAULT_DIGITS, Scalar, mpf_of, mpfs_of, rationalize


@dataclass(frozen=True)
class RealRoot:
    """One real root: exact if ``value`` is a Fraction, else a refined mpf."""

    value: Scalar
    multiplicity: int
    exact: bool


def yun_squarefree(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(factor, multiplicity)] with monic squarefree factors.

    The product of factor**multiplicity recovers p up to a constant.
    """
    if p.degree < 1:
        return []
    p = p * (1 / p.leading())
    g = p.gcd(p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    w = p.exact_div(g)
    z = p.derivative().exact_div(g) - w.derivative()
    out = []
    k = 1
    while w.degree > 0:
        f = w.gcd(z)
        if f.degree > 0:
            out.append((f, k))
            w = w.exact_div(f)
            z = z.exact_div(f) - w.derivative()
        else:
            z = z - w.derivative()
        k += 1
    return out


def _sign(p: Poly, x: Fraction) -> int:
    """The sign of p(x), from the integer ``Poly.numerator_at``."""
    n = p.numerator_at(x)
    return (n > 0) - (n < 0)


def _sturm_chain(p: Poly) -> list[Poly]:
    """The Sturm sequence of p, each member a positive multiple of the
    Euclidean one (``Poly.prem``), so of its sign everywhere."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = chain[-2].prem(chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return chain


def _sign_changes(chain: list[Poly], x: Fraction) -> int:
    signs = [s for s in (_sign(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _root_bound(p: Poly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p.leading())
    b = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + b / lead


def _isolate(p: Poly, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Intervals (lo, hi] each containing exactly one root of squarefree p."""
    chain = _sturm_chain(p)
    eps = Fraction(1, 2)
    while not _sign(chain[0], lo):
        lo -= eps
        eps /= 2
    eps = Fraction(1, 2)
    while not _sign(chain[0], hi):
        hi += eps
        eps /= 2
    work = [(lo, hi)]
    found = []
    while work:
        a, b = work.pop()
        n = _count_roots(chain, a, b)
        if n == 0:
            continue
        if n == 1:
            found.append((a, b))
            continue
        mid = (a + b) / 2
        attempts = 0
        while not _sign(chain[0], mid):
            mid += (b - a) / Fraction(1009 + attempts)
            attempts += 1
        work.append((a, mid))
        work.append((mid, b))
    found.sort()
    return found


def _try_rational(p: Poly, x_mpf) -> Optional[Fraction]:
    """The rational root of p next to x_mpf, if there is one (verified exactly).

    Cleared to primitive integer coefficients with leading coefficient a_n,
    p can only have rational roots u/a_n with u an integer (rational root
    theorem), so u is x·a_n rounded.
    """
    a_n = abs(p.nums[p.degree]) // gcd(*p.nums.values())
    cand = Fraction(round(rationalize(x_mpf) * a_n), a_n)
    return cand if p(cand) == 0 else None


def _halve(lo: Fraction, hi: Fraction, width: Fraction, above) -> tuple:
    """Bisect (lo, hi) to below ``width``; ``above(mid)`` says whether the
    root lies above mid, or is None when mid is the root, giving (mid, mid)."""
    while hi - lo >= width:
        mid = (lo + hi) / 2
        side = above(mid)
        if side is None:
            return mid, mid
        lo, hi = (mid, hi) if side else (lo, mid)
    return lo, hi


def _newton(p: Poly, lo: Fraction, hi: Fraction, digits: int):
    """The root of p in (lo, hi), by mpf Newton from the midpoint."""
    wp = digits + 10
    cs, dcs = mpfs_of(p.coeffs, wp), mpfs_of(p.derivative().coeffs, wp)
    with mpmath.workdps(wp):
        x = (mpf_of(lo, wp) + mpf_of(hi, wp)) / 2
        stop = mpmath.mpf(10) ** (-(digits + 6))
        for _ in range(50):
            d = horner(dcs, x)
            if d == 0:
                break
            step = horner(cs, x) / d
            x -= step
            if abs(step) < stop:
                break
        return +x


def _refine(p: Poly, lo: Fraction, hi: Fraction, digits: int):
    """(value, lo, hi): (lo, hi) shrunk inside the given bracket to below
    10^−(digits+5), and its root as a Fraction when a midpoint hits it, else
    Newton-polished in mpf.  Exact bisection stops at about 2⁻⁶⁰ of the
    endpoints' size; a Newton root steers the remaining halvings, and exact
    signs at both ends certify their bracket (else exact bisection goes on),
    so bracket and value are those of exact bisection all the way."""
    s_lo = _sign(p, lo)

    def exact(mid):
        s = _sign(p, mid)
        return None if s == 0 else s == s_lo

    width = Fraction(1, 10 ** (digits + 5))
    rough = max(max(abs(lo), abs(hi)) / 2**60, width)
    lo, hi = (lo, lo) if s_lo == 0 else _halve(lo, hi, rough, exact)
    if lo < hi:
        guide = rationalize(_newton(p, lo, hi, digits))
        steered = _halve(lo, hi, width, lambda mid: mid < guide)
        certified = exact(steered[0]) is True and exact(steered[1]) is False
        lo, hi = steered if certified else _halve(lo, hi, width, exact)
    if lo == hi:
        return lo, lo, lo
    return _newton(p, lo, hi, digits), lo, hi


def real_roots(p: Poly, digits: int | None = None,
               lo: Fraction | None = None,
               hi: Fraction | None = None) -> list[RealRoot]:
    """All real roots of p (optionally within [lo, hi]), sorted ascending.

    Exact rational roots come back as Fractions with ``exact=True``;
    the rest are mpf values accurate to roughly ``digits`` digits.
    """
    digits = digits or DEFAULT_DIGITS
    if p.is_zero():
        raise ValueError("zero polynomial has every point as a root")
    roots: list[RealRoot] = []
    for factor, mult in yun_squarefree(p):
        bound = _root_bound(factor)
        a = Fraction(lo) if lo is not None else -bound
        b = Fraction(hi) if hi is not None else bound
        if a >= b:
            continue
        if factor.degree == 1:
            r = -factor[0] / factor[1]
            if a <= r <= b:
                roots.append(RealRoot(r, mult, True))
            continue
        for ia, ib in _isolate(factor, a, b):
            x, flo, fhi = _refine(factor, ia, ib, digits)
            if isinstance(x, Fraction):
                if a <= x <= b:
                    roots.append(RealRoot(x, mult, True))
                continue
            cand = _try_rational(factor, x)
            if cand is not None and flo <= cand <= fhi:
                if a <= cand <= b:
                    roots.append(RealRoot(cand, mult, True))
            else:
                with mpmath.workdps(digits + 5):
                    in_range = mpf_of(a, digits + 5) <= x <= mpf_of(b, digits + 5)
                if in_range:
                    roots.append(RealRoot(x, mult, False))

    def _key(r: RealRoot):
        with mpmath.workdps(digits + 5):
            return mpf_of(r.value, digits + 5)

    roots.sort(key=_key)
    return roots
