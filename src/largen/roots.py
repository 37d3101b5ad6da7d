"""Real root finding for exact polynomials.

``isolate`` isolates roots exactly, by Sturm sequences of primitive
pseudo-remainders with signs taken on ``Poly``'s integer numerators, and
takes multiplicities from Yun's squarefree decomposition.  ``refine`` bisects
one root exactly to about 2⁻⁶⁰ of its size, then to the bisection bracket of
an mpf Newton root (closed form, certified by exact signs), polishes it, and
finds it rational by the rational root theorem and an exact check.
``real_roots`` refines every root.  ``bracket`` certifies a Newton guess by
two signs and ``certified_irrational`` proves a root irrational, so the phase
solvers refine only the roots they keep; ``onecut`` needs ``rational_roots``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from typing import Optional

import mpmath

from .polys import Poly, horner
from .scalars import Scalar, mpf_of, mpfs_of, rationalize, working_digits


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


def _lead(p: Poly) -> int:
    """a_n, p's primitive integer leading coefficient: rational roots are u/a_n."""
    return abs(p.nums[p.degree]) // gcd(*p.nums.values())


def _try_rational(p: Poly, x, lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """The root u/a_n of p in [lo, hi] with u = x·a_n rounded, if it is one."""
    a_n = _lead(p)
    cand = Fraction(round(rationalize(x) * a_n), a_n)
    return cand if lo <= cand <= hi and not _sign(p, cand) else None


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


def _steer(lo: Fraction, hi: Fraction, width: Fraction, guide: Fraction) -> tuple:
    """``_halve(lo, hi, width, lambda mid: mid < guide)`` in one division.

    Those halvings stop after the least n with (hi − lo)/2ⁿ < width, at the
    cell of the grid lo + (hi − lo)·j/2ⁿ whose upper end is the first grid
    point at or above the guide, clamped to the bracket.  A Fraction is
    canonical, so the ends are the loop's very values."""
    d = hi - lo
    n = (d // width).bit_length()
    i = min(max(ceil((guide - lo) * 2**n / d) - 1, 0), 2**n - 1)
    step = d / 2**n
    return lo + i * step, lo + (i + 1) * step


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
    Newton-polished in mpf.  Exact bisection (``_halve``) stops at about 2⁻⁶⁰
    of the endpoints' size; the bisection grid's cell that holds a Newton root
    is then taken in closed form (``_steer``), and exact signs at both its
    ends certify it (else exact bisection goes on), so bracket and value are
    those of exact bisection all the way."""
    s_lo = _sign(p, lo)

    def exact(mid):
        s = _sign(p, mid)
        return None if s == 0 else s == s_lo

    width = Fraction(1, 10 ** (digits + 5))
    rough = max(max(abs(lo), abs(hi)) / 2**60, width)
    lo, hi = (lo, lo) if s_lo == 0 else _halve(lo, hi, rough, exact)
    if lo < hi:
        guide = rationalize(_newton(p, lo, hi, digits))
        steered = _steer(lo, hi, width, guide)
        certified = exact(steered[0]) is True and exact(steered[1]) is False
        lo, hi = steered if certified else _halve(lo, hi, width, exact)
    if lo == hi:
        return lo, lo, lo
    return _newton(p, lo, hi, digits), lo, hi


def isolate(p: Poly, lo: Fraction | None = None,
            hi: Fraction | None = None) -> list[tuple[Poly, int, Fraction, Fraction]]:
    """(squarefree factor, multiplicity, a, b) for each real root of p (in
    [lo, hi] if given): the factor's one root in (a, b], or a == b = root."""
    if p.is_zero():
        raise ValueError("zero polynomial has every point as a root")
    found = []
    for factor, mult in yun_squarefree(p):
        bound = _root_bound(factor)
        a = Fraction(lo) if lo is not None else -bound
        b = Fraction(hi) if hi is not None else bound
        if a < b and factor.degree == 1:
            r = -factor[0] / factor[1]
            found += [(factor, mult, r, r)] if a <= r <= b else []
        elif a < b:
            found += [(factor, mult, ia, ib) for ia, ib in _isolate(factor, a, b)]
    return found


def refine(p: Poly, a: Fraction, b: Fraction, digits: int) -> Scalar:
    """The root of squarefree p in (a, b] from ``isolate``: a Fraction if it is
    rational, else an mpf to about ``digits`` digits."""
    x, lo, hi = _refine(p, a, b, digits) if a < b else (a, a, a)
    cand = None if isinstance(x, Fraction) else _try_rational(p, x, lo, hi)
    return x if cand is None else cand


def bracket(p: Poly, a: Fraction, b: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """[g − δ, g + δ] ∩ [a, b], δ = (1 + |g|)·10^−digits, around g from float
    Newton polished by ``_newton``, when p's exact signs at its ends differ,
    else [a, b]: a closed bracket of p's root in (a, b], with no bisection."""
    try:
        cs, x = [float(c) for c in reversed(p.coeffs)], float((a + b) / 2)
        for _ in range(100):
            v, dv = mpmath.fp.polyval(cs, x, derivative=True)
            x -= v / dv
            if abs(v / dv) <= 1e-15 * (1 + abs(x)):
                break
        g = rationalize(_newton(p, Fraction(x), Fraction(x), digits))
    except (ArithmeticError, ValueError):  # an overflow, a zero slope, a nan
        return a, b
    lo, hi = max(g - (1 + abs(g)) / 10**digits, a), min(g + (1 + abs(g)) / 10**digits, b)
    return (lo, hi) if lo < hi and _sign(p, lo) * _sign(p, hi) < 0 else (a, b)


def certified_irrational(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """Is p's root in [lo, hi] irrational: the one u/a_n it may hold is none."""
    return hi - lo < Fraction(1, 2 * _lead(p)) and _try_rational(p, (lo + hi) / 2, lo, hi) is None


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """(root, multiplicity) for the rational roots of p, ascending, unrefined:
    exact bisection to below 1/(2·a_n), a root at a midpoint kept as an end."""
    found = []
    for f, m, a, b in isolate(p):
        a, b = _halve(a, b, Fraction(1, 2 * _lead(f)), lambda x, s=_sign(f, a): _sign(f, x) == s)
        r = a if a == b else _try_rational(f, (a + b) / 2, a, b)
        found += [(r, m)] if r is not None else []
    return sorted(found)


def real_roots(p: Poly, digits: int | None = None,
               lo: Fraction | None = None,
               hi: Fraction | None = None) -> list[RealRoot]:
    """All real roots of p (optionally within [lo, hi]), sorted ascending.

    Exact rational roots come back as Fractions with ``exact=True``;
    the rest are mpf values accurate to roughly ``digits`` digits.
    """
    digits = working_digits(digits)
    roots = []
    for f, m, a, b in isolate(p, lo, hi):
        x = refine(f, a, b, digits)
        exact = isinstance(x, Fraction)
        ends = [e if exact else mpf_of(e, digits + 5) for e in (lo, x, hi) if e is not None]
        if ends == sorted(ends):  # lo ≤ x ≤ hi, exactly for a Fraction x
            roots.append(RealRoot(x, m, exact))
    roots.sort(key=lambda r: mpf_of(r.value, digits + 5))
    return roots
