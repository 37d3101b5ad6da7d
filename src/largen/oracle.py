"""Exact finite-N ground truth for the recurrence coefficients.

Everything downstream of this module is an asymptotic claim; here we build
the actual r_{n,N} at finite N from first principles, so the expansions
have something exact to be compared against.  The chain is

    moments  ->  Hankel reduction  ->  r_{n,N}, h_{n,N}
                                        -> discrete string equation check.

Moments of the weight e^{-(N/T)V(x)} come from one tanh-sinh pass over node
levels 1..10, shared by every moment: mpmath's nodes, rebuilt bit for bit in
raw ``libmp`` tuples once per process for each level and precision, and
streamed per interval, less those whose terms provably vanish.  The intervals
end at the stationary radii of V and at the radii where (N/T)·V(x²) reaches
fixed levels (``_LEVELS``), so that each holds one scale of the weight.  On
each interval a moment's level sum stops refining where mpmath's error
estimate, relative to the moment's total at the previous level, reaches
eps/8; the moment is accepted at the first level d ≥ 5 whose total agrees
with level d - 1's to ``digits + 5`` decimals, relative.
The reduction to recurrence coefficients uses the classical three-term
bootstrap on the mixed table s(k, j) = ∫ π_k(x) x^j dμ,

    s(k, j) = s(k-1, j+1) - β_{k-1} s(k-2, j),     β_k = s(k,k)/s(k-1,k-1),

which for an even weight touches only even-parity entries.  Hankel-style
reductions are notoriously ill-conditioned, so the table is computed at
four times the requested precision and a first-order error bound is
propagated alongside every entry; the table reports how many digits
actually survived, and refuses (with the largest trustworthy index) rather
than return garbage.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import mpmath
from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp import (finf, fone, fzero, from_man_exp, mpf_abs, mpf_add, mpf_div, mpf_exp,
                          mpf_le, mpf_mul, mpf_neg, mpf_pi, mpf_shift, mpf_sub, round_nearest)

from .errors import NumericallySingular, PrecisionExhausted, certify, checked_index
from .potential import Potential
from .roots import _sign, real_roots
from .scalars import Scalar, mpf_of, rationalize

# a recurrence entry is unusable once fewer than this many digits survive
_TRUST_FLOOR = 10
# the fewest digits a moment table takes, and the digits the Hankel reduction
# loses per recurrence index (measured 1.2-2.1 at N = 64, rising slowly with N)
_MIN_DIGITS, _LOSS_PER_INDEX = 30, 2
# tanh-sinh rule, used only for estimate_error (in ``_settled``); bits kept past the
# working precision in moment sums, nodes summed per chunk
_TANH_SINH, _GUARD, _CHUNK = TanhSinh(mpmath.mp), 32, 64
# levels of (N/T)·V(x²) whose outer radii are breakpoints, and their significant bits
_LEVELS, _LEVEL_BITS = (200, 2000), 8
# standard node levels kept per process: levels 1..10 at four precisions
_NODE_LEVELS = 40


@dataclass(frozen=True)
class MomentTable:
    """Even moments m_{2k} = ∫ x^{2k} e^{-(N/T)V(x)} dx, k = 0..kmax.

    Odd moments vanish by symmetry and are never stored.  Values are mpf,
    each certified to ``digits + 5`` decimals relative to itself by quadrature
    refinement.
    """

    g: Potential
    T: Scalar
    N: int
    digits: int
    moments: tuple

    def __post_init__(self):
        certify(all(m > 0 for m in self.moments), "moment table has a nonpositive moment")

    @property
    def kmax(self) -> int:
        return len(self.moments) - 1

    def moment(self, two_k: int):
        checked_index(two_k, 2 * self.kmax, f"moments computed through m_{2 * self.kmax}")
        return mpmath.mpf(0) if two_k % 2 else self.moments[two_k // 2]


def _split_points(g: Potential, T, N: int, digits: int) -> list:
    """Quadrature breakpoints: 0, the stationary radii of V, the scale radii, and infinity.

    tanh-sinh clusters nodes at interval ends, so a deep well away from the
    origin (g₂ < 0 at large N/T) must be made an endpoint or the peak can
    slip between nodes.  Past the outermost stationary radius s, (N/T)·V(x²)
    increases; where it first exceeds each of _LEVELS (if it is below it at
    s) is a scale radius, so that the bulk, the tail and the negligible rest
    of the weight each get their own interval.  A scale radius is the
    _LEVEL_BITS-bit dyadic rational just past that crossing, found by exact
    integer bisection, so it is the same number at every precision.
    """
    pts = [mpmath.mpf(0)]
    vp = g.v_lambda()
    if vp.degree >= 1:
        for root in real_roots(vp, digits):
            lam = mpf_of(root.value, digits)
            if lam > 0:
                pts.append(mpmath.sqrt(lam))
    pts.sort()
    s, v = pts[-1], g.v() * (N / rationalize(T))  # (N/T)·V(λ)
    for level in _LEVELS:
        q = v - level

        def past(m, t, q=q):  # is m·2^t beyond the crossing?
            return mpmath.ldexp(m, t) > s and _sign(q, (m * Fraction(2) ** t) ** 2) > 0

        if _sign(q, rationalize(s) ** 2) >= 0:  # (N/T)·V(s²) is already at the level
            continue
        e = 0
        while not past(1, e):
            e += 1
        while past(1, e - 1):
            e -= 1
        lo, hi = 1 << (_LEVEL_BITS - 1), 1 << _LEVEL_BITS  # 2^e·[1/2, 1] in 2^-_LEVEL_BITS steps
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if past(mid, e - _LEVEL_BITS) else (mid, hi)
        pts.append(mpmath.ldexp(hi, e - _LEVEL_BITS))
    pts.append(mpmath.inf)
    return pts


def _log10(x) -> float:
    """log10|x| of a nonzero mpf, in floating point."""
    _, man, exp, _ = x._mpf_
    return math.log10(man) + exp * math.log10(2)


def _settled(vals, prec: int, eps) -> bool:
    """``_TANH_SINH.estimate_error(vals, prec, eps) <= eps``, mostly in floats.

    mpmath estimates 10^int(D4), D4 = min(0, max(D1²/D2, 2·D1, -prec)) with
    D1, D2 = log10|v₃ - v₂|, log10|v₃ - v₁|.  D4 and log10(eps) from float
    logarithms are off by far less than 1e-6, which decides the comparison
    unless either is that close to an integer; those cases, fewer than three
    values and equal values are left to mpmath.
    """
    if len(vals) == 3 and vals[2] != vals[1] and vals[2] != vals[0]:
        d1, d2, e = _log10(vals[2] - vals[1]), _log10(vals[2] - vals[0]), _log10(eps)
        if d2:
            d4 = min(0.0, max(d1 * d1 / d2, 2 * d1, -prec))
            if abs(d4 - round(d4)) > 1e-6 and abs(e - round(e)) > 1e-6:
                return int(d4) <= math.floor(e)
    return _TANH_SINH.estimate_error(vals, prec, eps) <= eps


@lru_cache(maxsize=_NODE_LEVELS)
def _standard_nodes(degree: int, prec: int) -> tuple:
    """Level ``degree``'s nodes on [-1, 1] as raw (x, w): mpmath 1.3.0's ``calc_nodes``
    under ``get_nodes`` (prec + 40 bits), its rounded operations replayed in order.
    Built once per process for each (degree, prec) that stays in the cache."""
    wp, rnd = prec + 40, round_nearest
    tol, t0 = from_man_exp(1, -prec - 10), from_man_exp(1, -degree)
    pi4, expt0 = mpf_shift(mpf_pi(wp, rnd), -2), mpf_exp(t0, wp, rnd)
    nodes = [(fzero, mpf_shift(pi4, 1))] if degree == 1 else []
    udelta = mpf_exp(t0 if degree == 1 else mpf_shift(t0, 1), wp, rnd)
    urdelta = mpf_div(fone, udelta, wp, rnd)
    a, b = mpf_mul(pi4, expt0, wp, rnd), mpf_div(pi4, expt0, wp, rnd)
    for _ in range(20 * 2**degree + 1):
        c = mpf_exp(mpf_sub(a, b, wp, rnd), wp, rnd)  # e^{π/2·sinh t}
        d = mpf_div(fone, c, wp, rnd)
        co = mpf_shift(mpf_add(c, d, wp, rnd), -1)
        x = mpf_div(mpf_shift(mpf_sub(c, d, wp, rnd), -1), co, wp, rnd)
        if mpf_le(mpf_abs(mpf_sub(x, fone, wp, rnd)), tol):
            break
        w = mpf_div(mpf_add(a, b, wp, rnd), mpf_mul(co, co, wp, rnd), wp, rnd)
        nodes += (x, w), (mpf_neg(x), w)
        a, b = mpf_mul(a, udelta, wp, rnd), mpf_mul(b, urdelta, wp, rnd)
    return tuple(nodes)


def _interval_nodes(std, a, b, prec: int):
    """Stream raw ``std`` mapped to [a, b], b finite or +inf: ``transform_nodes``, replayed."""
    wp, rnd = prec + 20, round_nearest
    if b == finf:  # x -> a - 1 + u, u = 2/(x + 1)
        a1 = mpf_sub(a, fone, wp, rnd)
        for x, w in std:
            u = mpf_shift(mpf_div(fone, mpf_add(x, fone, wp, rnd), wp, rnd), 1)
            u2 = mpf_shift(mpf_mul(u, u, wp, rnd), -1)
            yield mpf_add(a1, u, wp, rnd), mpf_mul(w, u2, wp, rnd)
    else:  # x -> (b + a)/2 + (b - a)/2·x
        c, d = mpf_shift(mpf_sub(b, a, wp, rnd), -1), mpf_shift(mpf_add(b, a, wp, rnd), -1)
        for x, w in std:
            yield mpf_add(d, mpf_mul(c, x, wp, rnd), wp, rnd), mpf_mul(c, w, wp, rnd)


def _node_sums(nodes, nscale, vc, kmax, done=()):
    """Σ_j w_j x_j^{2k} e^{nscale·V(x_j²)} for the open k ≤ kmax, at working
    precision: a k in ``done`` gets None, and the list ends at the last open k.

    ``nodes`` yields raw (x, w); ``nscale`` = -N/T and ``vc`` (V's coefficients
    in x², highest first) are raw mpf.  Each node's weight is evaluated once;
    each moment's term is the previous one times x², cut to _GUARD bits past the
    precision; only open terms are kept.  The terms are positive, so each sum is
    exact in integer units of 2^f (f: the lowest exponent of the largest term so
    far), rounded at the end.  Past the first chunk, a node whose open terms are
    all provably below 2^{f-1} adds 0 and is skipped before its exponential
    (w, x < 2^{exp+bc}; for arg < 0 the computed e^{arg} < 2^{1-⌊|arg|⌋·1.442695}).
    """
    prec, rnd = mpmath.mp.prec, round_nearest
    width = prec + _GUARD
    ks = [k for k in range(kmax + 1) if k not in done]
    acc, low = [0] * (ks[-1] + 1), [None] * (ks[-1] + 1)
    nodes = iter(nodes)
    while chunk := list(islice(nodes, _CHUNK)):  # chunks keep memory flat
        mans, exps = [None if k in done else [] for k in range(len(acc))], [[] for _ in acc]
        for x, w in chunk:
            lam = mpf_mul(x, x, prec, rnd)
            v = vc[0]
            for c in vc[1:]:
                v = mpf_add(mpf_mul(v, lam, prec, rnd), c, prec, rnd)
            sign, am, ae, _ = arg = mpf_mul(nscale, v, prec, rnd)
            if sign and low[ks[0]] is not None:  # V > 0 and the units are set
                top = w[2] + w[3] + 2 - (am >> -ae if ae < 0 else am << ae) * 1442695 // 10**6
                if all(top + 2 * k * (x[2] + x[3]) <= low[k] for k in ks):
                    continue
            _, m, e, _ = mpf_exp(arg, prec, rnd)
            (_, wm, we, _), (_, xm, xe, _) = w, x
            m, e, xm, xe = m * wm, e + we, xm * xm, 2 * xe
            for ms, es in zip(mans, exps):
                cut = m.bit_length() - width
                m = m >> cut if cut >= 0 else m << -cut
                e += cut
                if ms is not None:
                    ms.append(m)
                    es.append(e)
                m, e = m * xm, e + xe
        for k in ks:
            ms, es = mans[k], exps[k]
            f = max(es, default=low[k])
            if low[k] is not None:  # rescale the sum so far to the larger unit
                f = max(f, low[k])
                acc[k] >>= f - low[k]
            low[k] = f
            acc[k] += sum(map(operator.rshift, ms, [f - e for e in es]))
    return [None if k in done else mpmath.mpf((acc[k], low[k])) for k in range(len(acc))]


def compute_moments(g: Potential, T, N: int, kmax: int, digits: int | None = None) -> MomentTable:
    """Certified moment table for the weight e^{-(N/T)V(x)}.

    One tanh-sinh pass over levels 1..10 on the intervals of ``_split_points``
    serves every moment; each level's nodes are built once per process at each
    precision (``_standard_nodes``) and streamed per interval.  A moment's sum
    on one interval freezes where ``estimate_error`` of its level sums (as
    ``_settled`` decides it), divided by the moment's total at the previous
    level, reaches eps/8, so a small moment is refined as far as a large one.
    The moment is accepted at the first level d ≥ 5 whose total agrees with
    level d - 1's to ``digits + 5`` decimals (relative), else
    ``PrecisionExhausted`` names it.  Without ``digits``, the table takes
    30 + 2·kmax: the Hankel reduction loses about two decimals per recurrence
    index.
    """
    if not T > 0:
        raise ValueError("need T > 0")
    if kmax < 0 or N < 1:
        raise ValueError("kmax must be nonnegative and N positive")
    digits = _MIN_DIGITS + _LOSS_PER_INDEX * kmax if digits is None else digits
    if digits < _MIN_DIGITS:
        raise ValueError(f"moment tables need at least {_MIN_DIGITS} digits")
    wp = digits + 12
    with mpmath.workdps(wp):
        nscale = mpf_neg((mpmath.mpf(N) / mpf_of(T, wp))._mpf_)
        vc = [mpf_of(c, wp)._mpf_ for c in reversed(g.v().coeffs)]
        points = _split_points(g, T, N, min(digits, 30))
        prec, eps = mpmath.mp.prec, mpmath.eps / 8
        tol = mpmath.mpf(10) ** (-(digits + 5))
        # per interval: each moment's level sums, and the moments whose sum froze
        levels = [([[] for _ in range(kmax + 1)], set()) for _ in points[1:]]
        moments = [None] * (kmax + 1)
        for degree in range(1, 11):
            with mpmath.workprec(prec + 20):
                h, std = mpmath.ldexp(1, -degree), None  # std: this level's nodes on [-1, 1]
                for a, b, (sums, done) in zip(points, points[1:], levels):
                    if len(done) <= kmax:
                        std = std or _standard_nodes(degree, prec)
                        nodes = _interval_nodes(std, a._mpf_, b._mpf_, prec)
                        for k, s in enumerate(_node_sums(nodes, nscale, vc, kmax, done)):
                            if k not in done:
                                res = sums[k]
                                res.append(h * (res[-1] / (2 * h) + s) if res else h * s)
                                # relative to the last level's total: estimate_error
                                # caps its estimate at 1 and floors it at 10^-prec
                                if degree > 1 and _settled(
                                        [r / prev[k] for r in res[-3:]], prec, eps):
                                    done.add(k)
                totals = [sum(sums[k][-1] for sums, _ in levels) for k in range(kmax + 1)]
            cur = [+t for t in totals]
            for k, c in enumerate(cur):
                if degree >= 5 and moments[k] is None and abs(c - prev[k]) <= tol * abs(c):
                    moments[k] = 2 * c
            if None not in moments:
                break
            prev = cur
        else:
            raise PrecisionExhausted(
                f"m_{2 * moments.index(None)} did not stabilize to {digits + 5} digits"
            )
    return MomentTable(g=g, T=T, N=N, digits=digits, moments=tuple(moments))


@dataclass(frozen=True)
class RecurrenceTable:
    """r_{n,N} (n = 1..nmax) and norms h_{n,N} (n = 0..nmax), as mpf.

    ``certified_digits`` is the propagated-error estimate of how many
    decimals of the worst entry survived the Hankel reduction.
    """

    g: Potential
    T: Scalar
    N: int
    digits: int
    certified_digits: int
    r: tuple
    h: tuple

    def __post_init__(self):
        certify(
            all(v > 0 for v in self.r) and all(v > 0 for v in self.h),
            "recurrence table has a nonpositive r_n or h_n",
        )

    @property
    def nmax(self) -> int:
        return len(self.r)

    def r_at(self, n: int):
        """r_{n,N}, with the r_{0,N} = 0 convention."""
        checked_index(n, self.nmax, f"recurrence table computed through r_{self.nmax}")
        return self.r[n - 1] if n else mpmath.mpf(0)


def recurrence_from_moments(mt: MomentTable, nmax: int) -> RecurrenceTable:
    """Recurrence coefficients from the moment table, with error tracking.

    Needs moments through m_{2·nmax}.  Raises ``NumericallySingular`` —
    carrying the largest trustworthy index — if a norm loses positivity or
    fewer than ten certified digits remain before reaching nmax.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if mt.kmax < nmax:
        raise ValueError(f"need moments through m_{2 * nmax}, have m_{2 * mt.kmax}")
    wp = 4 * mt.digits
    with mpmath.workdps(wp):
        inerr = mpmath.mpf(10) ** (-(mt.digits + 3))
        # levels keyed by the actual power j; only j ≡ k (mod 2) is nonzero
        prev2 = {}  # s(k-2, ·)
        prev2_err = {}
        prev1 = {2 * i: +mt.moments[i] for i in range(mt.kmax + 1)}  # s(0, ·)
        prev1_err = {j: v * inerr for j, v in prev1.items()}
        beta = []
        beta_err = []
        h = [prev1[0]]
        h_err = [prev1_err[0]]
        rels = []  # relative error bounds of r_1, r_2, ...
        for k in range(1, nmax + 1):
            top = 2 * nmax - k
            cur = {}
            cur_err = {}
            for j in range(k, top + 1, 2):
                v = prev1[j + 1]
                e = prev1_err[j + 1]
                if k >= 2:
                    v = v - beta[-1] * prev2[j]
                    e = e + abs(beta[-1]) * prev2_err[j] + beta_err[-1] * abs(prev2[j])
                cur[j] = v
                cur_err[j] = e
            hk, hk_err = cur[k], cur_err[k]
            if not hk > hk_err:
                raise _refusal(mt, rels + [mpmath.mpf(1)], nmax, f"norm h_{k} lost positivity")
            bk = hk / h[-1]
            bk_err = bk * (hk_err / hk + h_err[-1] / h[-1])
            rel = bk_err / bk
            rels.append(rel)
            if rel > mpmath.mpf(10) ** (-_TRUST_FLOOR):
                raise _refusal(mt, rels, nmax,
                               f"fewer than {_TRUST_FLOOR} digits of r_{k} survive the reduction")
            beta.append(bk)
            beta_err.append(bk_err)
            h.append(hk)
            h_err.append(hk_err)
            prev2, prev2_err = prev1, prev1_err
            prev1, prev1_err = cur, cur_err
        certified = int(mpmath.floor(-mpmath.log10(max(rels))))
    return RecurrenceTable(
        g=mt.g,
        T=mt.T,
        N=mt.N,
        digits=mt.digits,
        certified_digits=min(certified, mt.digits),
        r=tuple(beta),
        h=tuple(h),
    )


def _refusal(mt: MomentTable, rels: list, nmax: int, what: str) -> NumericallySingular:
    """The refusal at r_k, k = len(rels), whose relative error rels[-1] is too large.

    It names the table digits that would leave r_nmax _TRUST_FLOOR decimals:
    the shortfall at k, plus the decimals lost per index over the eight
    before it (at least _LOSS_PER_INDEX) for each index from k to nmax.
    """
    k, kept = len(rels), [-mpmath.log10(r) for r in rels[-10:]]  # decimals that survive
    last = kept[:-1]
    rate = max(_LOSS_PER_INDEX, (last[0] - last[-1]) / (len(last) - 1) if len(last) > 1 else 0)
    need = mt.digits + _TRUST_FLOOR - max(0, int(kept[-1])) + int(mpmath.ceil(rate * (nmax - k)))
    return NumericallySingular(
        f"{what} at {mt.digits} digits; r_{nmax} needs about {need} digits "
        f"(trusted through n = {k - 1})",
        trusted_n=k - 1,
    )


def oracle_table(g: Potential, T, N: int, nmax: int, digits: int | None = None) -> RecurrenceTable:
    """Moments plus reduction in one call — the usual entry point."""
    return recurrence_from_moments(compute_moments(g, T, N, nmax, digits), nmax)


# -- Lax-operator matrix elements ---------------------------------------------------


def lax_element(r, n: int, power: int):
    """(L^power)_{n,n-1}: the v_{n-1} coefficient of L^power v_n.

    ``r`` is the 1-based coefficient sequence (r[0] is r_{1,N}); the band of
    L^power reaches r_{n+power-1}, which must exist.
    """
    if n < 0 or power < 0:
        raise ValueError("indices must be nonnegative")
    if n + power - 1 > len(r):
        raise ValueError(f"band of L^{power} at row {n} needs r through {n + power - 1}")
    c = {n: mpmath.mpf(1)}
    for _ in range(power):
        nxt = {}
        for j, cj in c.items():
            nxt[j + 1] = nxt.get(j + 1, mpmath.mpf(0)) + cj
            if j >= 1:  # r_{0,N} = 0: nothing flows below v_0
                nxt[j - 1] = nxt.get(j - 1, mpmath.mpf(0)) + r[j - 1] * cj
        c = nxt
    return c.get(n - 1, mpmath.mpf(0))


def check_string_equation(rt: RecurrenceTable):
    """Max residual of V_z(L)_{n,n-1} = nT/N over every checkable row.

    The weight carries N/T where the bare string equation has N, so the
    right-hand side is n·T/N.  Row zero is the trivial 0 = 0 check.
    """
    g, N = rt.g, rt.N
    p = len(g.gs)
    with mpmath.workdps(rt.digits + 10):
        ntil = mpmath.mpf(N) / mpf_of(rt.T, rt.digits + 10)
        top = rt.nmax - (2 * p - 2)
        if top < 0:
            raise ValueError("table too short for the band of V_z(L)")
        worst = mpmath.mpf(0)
        for n in range(top + 1):
            val = mpmath.mpf(0)
            for k, g2k in enumerate(g.gs, start=1):
                if g2k:
                    val += 2 * k * mpf_of(g2k, rt.digits + 10) * lax_element(rt.r, n, 2 * k - 1)
            worst = max(worst, abs(val - n / ntil))
        return worst

