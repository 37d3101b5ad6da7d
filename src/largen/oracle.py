"""Exact finite-N ground truth for the recurrence coefficients.

Everything downstream of this module is an asymptotic claim; here we build
the actual r_{n,N} at finite N from first principles, so the expansions
have something exact to be compared against.  The chain is

    moments  ->  Hankel reduction  ->  r_{n,N}, h_{n,N}
                                        -> discrete string equation check.

Moments of the weight e^{-(N/T)V(x)} are computed by high-precision
quadrature with node-doubling convergence control: the value is accepted
only when two successive refinements agree to ``digits + 5`` decimals.
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

from dataclasses import dataclass

import mpmath

from .errors import NumericallySingular, PrecisionExhausted, certify
from .potential import Potential
from .roots import real_roots
from .scalars import Scalar, default_digits, mpf_of

# a recurrence entry is unusable once fewer than this many digits survive
_TRUST_FLOOR = 10


@dataclass(frozen=True)
class MomentTable:
    """Even moments m_{2k} = ∫ x^{2k} e^{-(N/T)V(x)} dx, k = 0..kmax.

    Odd moments vanish by symmetry and are never stored.  Values are mpf,
    certified to ``digits + 5`` decimals by quadrature refinement.
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
        if two_k % 2:
            return mpmath.mpf(0)
        return self.moments[two_k // 2]


def _split_points(g: Potential, digits: int) -> list:
    """Quadrature breakpoints: 0, the stationary radii of V, and infinity.

    tanh-sinh clusters nodes at interval ends, so a deep well away from the
    origin (g₂ < 0 at large N/T) must be made an endpoint or the peak can
    slip between nodes.
    """
    pts = [mpmath.mpf(0)]
    vp = g.v_lambda()
    if vp.degree >= 1:
        for root in real_roots(vp, digits):
            lam = mpf_of(root.value, digits)
            if lam > 0:
                pts.append(mpmath.sqrt(lam))
    pts.sort()
    pts.append(mpmath.inf)
    return pts


def compute_moments(
    g: Potential,
    T,
    N: int,
    kmax: int,
    digits: int | None = None,
) -> MomentTable:
    """Certified moment table for the weight e^{-(N/T)V(x)}.

    Each of the kmax+1 moments is integrated separately, raising the
    quadrature degree until two successive levels agree to ``digits + 5``
    decimals (relative); the moments share one weight function memoised on
    the node value, since nodes repeat across moments and levels.
    """
    digits = default_digits() if digits is None else digits
    if digits < 30:
        raise ValueError("moment tables need at least 30 digits")
    if kmax < 0 or N < 1:
        raise ValueError("kmax must be nonnegative and N positive")
    wp = digits + 12
    with mpmath.workdps(wp):
        scale = mpmath.mpf(N) / mpf_of(T, wp)
        vc = [mpf_of(c, wp) for c in g.v().coeffs]
        cache = {}

        def weight(x):
            # quadrature nodes repeat across moments and refinement levels,
            # so the exp is worth memoizing on the node value
            w = cache.get(x)
            if w is None:
                lam = x * x
                v = vc[-1]
                for c in reversed(vc[:-1]):
                    v = v * lam + c
                w = mpmath.exp(-scale * v)
                cache[x] = w
            return w

        points = _split_points(g, min(digits, 30))
        tol = mpmath.mpf(10) ** (-(digits + 5))
        moments = []
        for k in range(kmax + 1):

            def integrand(x, two_k=2 * k):
                return x**two_k * weight(x)

            prev = None
            for degree in range(4, 11):
                cur = mpmath.quad(integrand, points, maxdegree=degree)
                if prev is not None and abs(cur - prev) <= tol * abs(cur):
                    moments.append(2 * cur)
                    break
                prev = cur
            else:
                raise PrecisionExhausted(
                    f"m_{2 * k} did not stabilize to {digits + 5} digits"
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
        if n == 0:
            return mpmath.mpf(0)
        return self.r[n - 1]


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
        worst = mpmath.mpf(0)
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
                raise NumericallySingular(
                    f"norm h_{k} lost positivity at {mt.digits} digits; "
                    f"entries below n = {k} are certified",
                    trusted_n=k - 1,
                )
            bk = hk / h[-1]
            bk_err = bk * (hk_err / hk + h_err[-1] / h[-1])
            rel = bk_err / bk
            if rel > mpmath.mpf(10) ** (-_TRUST_FLOOR):
                raise NumericallySingular(
                    f"fewer than {_TRUST_FLOOR} digits of r_{k} survive the "
                    f"reduction; increase digits (trusted through n = {k - 1})",
                    trusted_n=k - 1,
                )
            worst = max(worst, rel)
            beta.append(bk)
            beta_err.append(bk_err)
            h.append(hk)
            h_err.append(hk_err)
            prev2, prev2_err = prev1, prev1_err
            prev1, prev1_err = cur, cur_err
        certified = int(mpmath.floor(-mpmath.log10(worst))) if worst > 0 else wp
    return RecurrenceTable(
        g=mt.g,
        T=mt.T,
        N=mt.N,
        digits=mt.digits,
        certified_digits=min(certified, mt.digits),
        r=tuple(beta),
        h=tuple(h),
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


def check_string_equation(rt: RecurrenceTable, g: Potential | None = None, N: int | None = None):
    """Max residual of V_z(L)_{n,n-1} = nT/N over every checkable row.

    The weight carries N/T where the bare string equation has N, so the
    right-hand side is n·T/N.  Row zero is the trivial 0 = 0 check.
    """
    g = rt.g if g is None else g
    N = rt.N if N is None else N
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

