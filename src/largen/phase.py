"""Planar phase structure of even-potential Hermitian matrix models.

Supports the one- and two-cut phases: endpoint equations, the polynomial
h entering the eigenvalue density, admissibility of candidate solutions
(density positivity plus the effective-potential inequalities outside and
between the cuts), and classification at a given temperature T.

Conventions.  The support lives on the real z-axis; in λ = z² every even
model has its one-cut support on [0, α²] with α² = 4r₀, and its two-cut
support on [α², β²].  The polynomial part of V_z/w₁ factors through an even
polynomial h̃ in λ:

    s = 1:  h(z) = h̃(z²),          w₁(z) = √(z² - α²),
    s = 2:  h(z) = z·h̃(z²),        w₁(z) = √((z² - α²)(z² - β²)),

and the density is ρ(x) = h(x)·w₁₊(x)/(2πi·T), normalized to ∫ρ = 1.
Everything stays in exact rational arithmetic whenever the data allows:
the two-cut case needs only the rational combinations α² + β² = 2(a₀+b₀)
and α²β² = (a₀-b₀)², never the irrational endpoints themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import mpmath

from .errors import (
    NoAdmissibleRoot,
    NoTwoCutSolution,
    OutsideSupport,
    Unclassifiable,
)
from .polys import Poly
from .potential import Potential
from .roots import RealRoot, real_roots
from .scalars import Scalar, as_fraction, default_digits, is_exact, mpf_of, sqrt_scalar
from .structured import branch_poly_part, branch_residue
from .wring import _pmul

_ZERO = Fraction(0)

_CLEAR, _TOUCH, _BAD = "clear", "touch", "bad"


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of classifying one temperature."""

    s: int
    endpoints: tuple  # λ-plane cut: (0, α²) for s=1, (α², β²) for s=2
    status: str  # "regular" | "critical" | "invalid"
    h: Poly  # the even factor h̃(λ); empty when carried numerically
    T: Scalar
    r0: Optional[Scalar] = None
    a0: Optional[Scalar] = None
    b0: Optional[Scalar] = None
    note: str = ""
    h_numeric: tuple = field(default=(), compare=False)
    alternates: tuple = field(default=(), compare=False)

    def h_coeffs(self) -> list:
        return list(self.h.coeffs) if self.h.degree >= 0 else list(self.h_numeric)


# -- h-polynomial ------------------------------------------------------------


def _h_curve_coeffs(g: Potential, d1, d0, s: int) -> list:
    """Coefficients of h̃(λ), the polynomial part of V_z/w₁ on the curve
    w² = λ² + d1·λ + d0.  Exact when d1, d0 are; mpf otherwise."""
    vp = list(g.v_lambda().coeffs)
    if not (is_exact(d1) and is_exact(d0)):
        dps = mpmath.mp.dps
        vp = [mpf_of(c, dps) for c in vp]
    nums = [2 * c for c in vp]
    if s == 1:
        nums = [type(nums[0])(0) if not is_exact(nums[0]) else _ZERO] + nums
    return branch_poly_part(nums, d1, d0, -1)


def compute_h(g: Potential, endpoints: Sequence) -> Poly:
    """h̃(λ) for a λ-plane cut (0, α²) (one-cut) or (α², β²) (two-cut).

    Endpoints must be exact rationals here; classification uses an internal
    route that avoids irrational two-cut endpoints altogether.
    """
    lo, hi = (as_fraction(e) for e in endpoints)
    if not 0 <= lo < hi:
        raise ValueError("endpoints must satisfy 0 <= lo < hi")
    if lo == 0:
        return Poly(_h_curve_coeffs(g, -hi, _ZERO, 1))
    return Poly(_h_curve_coeffs(g, -(lo + hi), lo * hi, 2))


def branch_density_positive(g: Potential, r0, digits: int | None = None) -> bool:
    """Is h̃ strictly positive across the support (0, 4·r0)?

    A sign test only — none of the effective-potential integrals.  Used when
    following a solution branch into regions where the global equilibrium
    measure has already jumped to another configuration, where the branch is
    still meaningful as long as its density stays positive.
    """
    digits = digits or default_digits()
    if is_exact(r0):
        r = as_fraction(r0)
        coeffs = _h_curve_coeffs(g, -4 * r, _ZERO, 1)
        return _h_status(coeffs, _ZERO, 4 * r, digits) == _CLEAR
    with mpmath.workdps(digits + 10):
        r = mpf_of(r0, digits + 10)
        coeffs = _h_curve_coeffs(g, -4 * r, _ZERO, 1)
        return _h_status(coeffs, mpmath.mpf(0), 4 * r, digits) == _CLEAR


# -- sign analysis ------------------------------------------------------------


def _tol(digits: int):
    return mpmath.mpf(10) ** (-(digits // 2))


def _poly_real_roots_numeric(coeffs, digits: int) -> list:
    """Real roots of a polynomial given by mpf/Fraction coefficients."""
    with mpmath.workdps(digits + 10):
        cs = [mpf_of(c, digits + 10) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) <= 1:
            return []
        roots = mpmath.polyroots(list(reversed(cs)), maxsteps=200, extraprec=80)
        tol = _tol(digits)
        out = sorted(r.real for r in roots if abs(r.imag) < tol)
        return out


def _eval_numeric(coeffs, x, digits: int):
    acc = mpmath.mpf(0)
    xp = mpmath.mpf(1)
    for c in coeffs:
        acc += mpf_of(c, digits) * xp
        xp *= x
    return acc


def _h_status_exact(h: Poly, lo: Fraction, hi: Fraction, digits: int) -> str:
    """Sign pattern of h̃ on [lo, hi]: strictly positive, nonnegative with a
    zero on the closed interval, or negative somewhere."""
    if h.degree <= 0:
        c = h(lo)
        return _CLEAR if c > 0 else (_TOUCH if c == 0 else _BAD)
    roots = real_roots(h, digits, lo=lo, hi=hi)
    for r in roots:
        interior_lo = (r.value > lo) if r.exact else (mpf_of(r.value, digits) > mpf_of(lo, digits))
        interior_hi = (r.value < hi) if r.exact else (mpf_of(r.value, digits) < mpf_of(hi, digits))
        if interior_lo and interior_hi and r.multiplicity % 2 == 1:
            return _BAD  # sign change inside the interval
    # no interior sign change: one honest probe fixes the overall sign
    d = h.degree
    sign = None
    for k in range(1, d + 3):
        p = lo + (hi - lo) * Fraction(k, d + 3)
        v = h(p)
        if v:
            sign = v > 0
            break
    if sign is None:  # pragma: no cover - a nonzero poly of degree d has ≤ d roots
        return _TOUCH
    if not sign:
        return _BAD
    return _TOUCH if roots else _CLEAR


def _h_status_numeric(coeffs, lo, hi, digits: int) -> str:
    with mpmath.workdps(digits + 10):
        lo_f, hi_f = mpf_of(lo, digits + 10), mpf_of(hi, digits + 10)
        tol = _tol(digits)
        roots = [
            r
            for r in _poly_real_roots_numeric(coeffs, digits)
            if lo_f - tol <= r <= hi_f + tol
        ]
        pts = sorted({lo_f, hi_f, *roots})
        probes = list(pts) + [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        vals = [_eval_numeric(coeffs, x, digits + 10) for x in probes]
        if any(v < -tol for v in vals):
            return _BAD
        if roots or any(abs(v) <= tol for v in vals):
            return _TOUCH
        return _CLEAR


def _h_status(coeffs, lo, hi, digits: int) -> str:
    if all(is_exact(c) for c in coeffs) and is_exact(lo) and is_exact(hi):
        return _h_status_exact(Poly(coeffs), as_fraction(lo), as_fraction(hi), digits)
    return _h_status_numeric(coeffs, lo, hi, digits)


# -- effective-potential inequalities ------------------------------------------


def _outside_inequality(h_coeffs, lam_roots, digits: int) -> str:
    """∫_β^x h·w₁ ≥ 0 for x > β (the left inequality follows by parity).

    ``lam_roots`` are the λ-plane branch points.  The running integral is
    monotone between zeros of h̃, so testing it at every zero beyond the
    support decides the inequality.
    """
    with mpmath.workdps(digits + 10):
        tol = _tol(digits)
        top = mpf_of(max(lam_roots, key=lambda r: mpf_of(r, digits + 10)), digits + 10)
        hroots = [r for r in _poly_real_roots_numeric(h_coeffs, digits) if r > top + tol]
        if not hroots:
            return _CLEAR
        two_cut = len(lam_roots) == 2
        beta = mpmath.sqrt(top)
        roots_f = [mpf_of(r, digits + 10) for r in lam_roots]

        def integrand(x):
            lam = x * x
            acc = mpmath.mpf(1)
            for r in roots_f:
                acc *= lam - r
            w = mpmath.sqrt(acc)
            h = _eval_numeric(h_coeffs, lam, digits + 10)
            return (x * h if two_cut else h) * w

        verdict = _CLEAR
        for lam_r in hroots:
            g_val = mpmath.quad(integrand, [beta, mpmath.sqrt(lam_r)])
            if g_val < -tol:
                return _BAD
            if abs(g_val) <= tol:
                verdict = _TOUCH
        return verdict


def _gap_inequality(h_coeffs, alpha2, beta2, digits: int) -> str:
    """Two-cut only: ∫_{-α}^x h·w₁ ≥ 0 across the gap (-α, α).

    When h̃ ≥ 0 on [0, α²] the running integral is a strict interior hump
    (it rises for x < 0, falls for x > 0, and vanishes only at ±α), so the
    inequality is strict for free.  Only a sign dip of h̃ inside the gap
    forces numeric evaluation at the interior critical points.
    """
    with mpmath.workdps(digits + 10):
        tol = _tol(digits)
        a2 = mpf_of(alpha2, digits + 10)
        b2 = mpf_of(beta2, digits + 10)
        st = _h_status(h_coeffs, Fraction(0), alpha2, digits)
        if st in (_CLEAR, _TOUCH):
            return _CLEAR
        alpha = mpmath.sqrt(a2)

        def integrand(x):
            lam = x * x
            w_gap = -mpmath.sqrt((a2 - lam) * (b2 - lam))  # w₁ < 0 in the gap
            return x * _eval_numeric(h_coeffs, lam, digits + 10) * w_gap

        hroots = [
            r for r in _poly_real_roots_numeric(h_coeffs, digits) if tol < r < a2 - tol
        ]
        candidates = sorted(
            [mpmath.sqrt(r) for r in hroots] + [-mpmath.sqrt(r) for r in hroots]
        )
        verdict = _CLEAR
        for x_c in candidates:
            val = mpmath.quad(integrand, [-alpha, x_c])
            if val < -tol:
                return _BAD
            if abs(val) <= tol:
                verdict = _TOUCH
        return verdict


# -- one-cut --------------------------------------------------------------------


def _one_cut_candidates(g: Potential, T, digits: int) -> list[RealRoot]:
    W = g.hodograph()
    if is_exact(T):
        p = W - Poly.const(as_fraction(T))
        return [r for r in real_roots(p, digits) if r.value > 0]
    with mpmath.workdps(digits + 10):
        coeffs = [mpf_of(c, digits + 10) for c in W.coeffs]
        coeffs[0] -= mpf_of(T, digits + 10)
        return [RealRoot(r, 1, False) for r in _poly_real_roots_numeric(coeffs, digits) if r > 0]


def _one_cut_verdict(g: Potential, r0, digits: int) -> Optional[str]:
    """None if inadmissible, else "regular" / "critical"."""
    if is_exact(r0):
        A = 4 * as_fraction(r0)
        hc = _h_curve_coeffs(g, -A, _ZERO, 1)
    else:
        with mpmath.workdps(digits + 10):
            A = 4 * mpf_of(r0, digits + 10)
            hc = _h_curve_coeffs(g, -A, _ZERO, 1)
    inside = _h_status(hc, _ZERO if is_exact(A) else mpmath.mpf(0), A, digits)
    if inside == _BAD:
        return None
    if inside == _TOUCH:
        # a zero of h on the closed support marks the model critical outright
        return "critical"
    outside = _outside_inequality(hc, [A], digits)
    if outside == _BAD:
        return None
    return "critical" if outside == _TOUCH else "regular"


def solve_one_cut(g: Potential, T, digits: int | None = None) -> Scalar:
    """The admissible one-cut r₀ with W(r₀) = T.

    Among positive roots of the hodograph equation, admissible means the
    induced density is nonnegative on the support and the outside
    inequality holds; if several qualify, the smallest — the branch
    continuous from T → 0⁺ — is returned.
    """
    digits = digits or default_digits()
    T_pos = (as_fraction(T) > 0) if is_exact(T) else (T > 0)
    if not T_pos:
        raise ValueError("need T > 0")
    for root in _one_cut_candidates(g, T, digits):
        if _one_cut_verdict(g, root.value, digits) is not None:
            return root.value
    raise NoAdmissibleRoot(f"no admissible one-cut solution at T={T}")


# -- two-cut --------------------------------------------------------------------


def _quartic_two_cut(g: Potential, T, digits: int):
    g2, g4 = g.gs
    disc = g2 * g2 - 4 * as_fraction(T) * g4
    if disc <= 0:
        raise NoTwoCutSolution("inside the one-cut region (discriminant ≤ 0)")
    root = sqrt_scalar(disc, digits)
    if is_exact(root):
        a0 = (root - g2) / (4 * g4)
        b0 = (-root - g2) / (4 * g4)
    else:
        with mpmath.workdps(digits + 5):
            g2_f = mpf_of(g2, digits + 5)
            den = mpf_of(4 * g4, digits + 5)
            a0 = (root - g2_f) / den
            b0 = (-root - g2_f) / den
    if b0 <= 0:
        raise NoTwoCutSolution("lower endpoint collapsed: b₀ ≤ 0")
    return a0, b0


def _two_cut_residuals(vp_f, sigma, tau, T_f):
    d1, d0 = -(sigma + tau), sigma * tau
    e0 = branch_residue(vp_f, d1, d0, -1)
    e1 = branch_residue(vp_f, d1, d0, -1, shift=1) - T_f
    return e0, e1


def _two_cut_jacobian(vp_f, sigma, tau):
    d1, d0 = -(sigma + tau), sigma * tau
    half = Fraction(1, 2)

    def row(shift):
        dsig = branch_residue(_pmul(vp_f, [-tau, 1]), d1, d0, -3, shift=shift) * half
        dtau = branch_residue(_pmul(vp_f, [-sigma, 1]), d1, d0, -3, shift=shift) * half
        return dsig, dtau

    j00, j01 = row(0)
    j10, j11 = row(1)
    return j00, j01, j10, j11


def solve_two_cut(g: Potential, T, digits: int | None = None):
    """Endpoint data (a₀, b₀) with a₀ > b₀ > 0 for the two-cut phase.

    Quartic families use the closed form; higher-degree potentials run a
    damped Newton iteration on (σ, τ) = (α², β²) seeded from a coarse grid.
    """
    digits = digits or default_digits()
    if len(g.gs) == 2:
        return _quartic_two_cut(g, T, digits)
    with mpmath.workdps(2 * digits):
        T_f = mpf_of(T, 2 * digits)
        vp_f = [mpf_of(c, 2 * digits) for c in g.v_lambda().coeffs]
        W = g.hodograph()
        scales = [mpmath.mpf(1)]
        if W.derivative().degree >= 1:
            scales += [
                abs(mpf_of(r.value, 2 * digits)) * 4
                for r in real_roots(W.derivative(), digits)
            ]
        r_scale = max(scales)
        best = None
        for i in range(1, 9):
            tau = r_scale * i
            for jf in range(1, 8):
                sigma = tau * Fraction(jf, 8)
                e0, e1 = _two_cut_residuals(vp_f, sigma, tau, T_f)
                n = abs(e0) + abs(e1)
                if best is None or n < best[0]:
                    best = (n, sigma, tau)
        _, sigma, tau = best
        sigma, tau = mpmath.mpf(sigma) * 1, tau * 1
        tol = mpmath.mpf(10) ** (-digits)
        converged = False
        for _ in range(160):
            e0, e1 = _two_cut_residuals(vp_f, sigma, tau, T_f)
            if abs(e0) + abs(e1) < tol:
                converged = True
                break
            j00, j01, j10, j11 = _two_cut_jacobian(vp_f, sigma, tau)
            det = j00 * j11 - j01 * j10
            if det == 0:
                raise NoTwoCutSolution("singular endpoint Jacobian")
            dsig = (-e0 * j11 + e1 * j01) / det
            dtau = (-e1 * j00 + e0 * j10) / det
            step = mpmath.mpf(1)
            improved = False
            while step > mpmath.mpf(2) ** -40:
                s_new, t_new = sigma + step * dsig, tau + step * dtau
                if 0 < s_new < t_new:
                    n0, n1 = _two_cut_residuals(vp_f, s_new, t_new, T_f)
                    if abs(n0) + abs(n1) < abs(e0) + abs(e1):
                        sigma, tau = s_new, t_new
                        improved = True
                        break
                step /= 2
            if not improved:
                raise NoTwoCutSolution("Newton iteration stalled")
        if not converged:
            raise NoTwoCutSolution("Newton iteration did not converge")
        if not 0 < sigma < tau:
            raise NoTwoCutSolution("endpoints out of order")
        a0 = (mpmath.sqrt(sigma) + mpmath.sqrt(tau)) ** 2 / 4
        b0 = (mpmath.sqrt(tau) - mpmath.sqrt(sigma)) ** 2 / 4
        return a0, b0


def _two_cut_verdict(g: Potential, a0, b0, digits: int) -> Optional[str]:
    if is_exact(a0) and is_exact(b0):
        a0x, b0x = as_fraction(a0), as_fraction(b0)
        if not (b0x > 0 and a0x > b0x):
            return None
        d1 = -2 * (a0x + b0x)
        d0 = (a0x - b0x) ** 2
        hc = _h_curve_coeffs(g, d1, d0, 2)
    else:
        with mpmath.workdps(digits + 10):
            a0f, b0f = mpf_of(a0, digits + 10), mpf_of(b0, digits + 10)
            if not (b0f > 0 and a0f > b0f):
                return None
            d1 = -2 * (a0f + b0f)
            d0 = (a0f - b0f) ** 2
            hc = _h_curve_coeffs(g, d1, d0, 2)
    with mpmath.workdps(digits + 10):
        mid = -mpf_of(d1, digits + 10) / 2
        root = mpmath.sqrt(mid * mid - mpf_of(d0, digits + 10))
        a2, b2 = mid - root, mid + root
        tol = _tol(digits)
        if a2 <= tol:
            return "critical" if a2 > -tol else None
        on_support = _h_status(hc, a2, b2, digits)
        if on_support == _BAD:
            return None
        if on_support == _TOUCH:
            return "critical"
        gap = _gap_inequality(hc, a2, b2, digits)
        if gap == _BAD:
            return None
        outside = _outside_inequality(hc, [a2, b2], digits)
        if outside == _BAD:
            return None
    return "critical" if _TOUCH in (gap, outside) else "regular"


# -- classification ----------------------------------------------------------------


def _one_cut_result(g: Potential, T, root, status: str, digits: int) -> PhaseResult:
    if is_exact(root):
        r0 = as_fraction(root)
        A = 4 * r0
        return PhaseResult(
            s=1,
            endpoints=(_ZERO, A),
            status=status,
            h=Poly(_h_curve_coeffs(g, -A, _ZERO, 1)),
            T=T,
            r0=r0,
        )
    with mpmath.workdps(digits + 10):
        A = 4 * mpf_of(root, digits + 10)
        hc = _h_curve_coeffs(g, -A, _ZERO, 1)
    return PhaseResult(
        s=1,
        endpoints=(_ZERO, A),
        status=status,
        h=Poly(()),
        T=T,
        r0=root,
        h_numeric=tuple(hc),
        note="h carried numerically",
    )


def _two_cut_result(g: Potential, T, a0, b0, status: str, digits: int) -> PhaseResult:
    if is_exact(a0) and is_exact(b0):
        a0, b0 = as_fraction(a0), as_fraction(b0)
        d1, d0 = -2 * (a0 + b0), (a0 - b0) ** 2
        h = Poly(_h_curve_coeffs(g, d1, d0, 2))
        h_num = ()
    else:
        with mpmath.workdps(digits + 10):
            d1 = -2 * (mpf_of(a0, digits + 10) + mpf_of(b0, digits + 10))
            d0 = (mpf_of(a0, digits + 10) - mpf_of(b0, digits + 10)) ** 2
            h_num = tuple(_h_curve_coeffs(g, d1, d0, 2))
        h = Poly(())
    with mpmath.workdps(digits + 10):
        sab = mpmath.sqrt(mpf_of(a0, digits + 10) * mpf_of(b0, digits + 10))
        s_sum = mpf_of(a0, digits + 10) + mpf_of(b0, digits + 10)
        alpha2, beta2 = s_sum - 2 * sab, s_sum + 2 * sab
    return PhaseResult(
        s=2,
        endpoints=(alpha2, beta2),
        status=status,
        h=h,
        T=T,
        a0=a0,
        b0=b0,
        h_numeric=h_num,
    )


def classify_phase(g: Potential, T, digits: int | None = None) -> PhaseResult:
    """Decide the s = 1 or s = 2 phase at temperature T.

    Regular solutions must pass all strict inequalities; a zero of h̃ on
    the closed support, a collapsed gap, or a saturated inequality marks
    the model critical.  If both phases survive at the working resolution
    (possible only on the critical curve) the result is reported critical
    with the competing candidate attached.
    """
    digits = digits or default_digits()
    results: list[PhaseResult] = []
    for root in _one_cut_candidates(g, T, digits):
        verdict = _one_cut_verdict(g, root.value, digits)
        if verdict is not None:
            results.append(_one_cut_result(g, T, root.value, verdict, digits))
            break  # smallest admissible root is the physical branch
    try:
        a0, b0 = solve_two_cut(g, T, digits)
    except (NoTwoCutSolution, Unclassifiable):
        a0 = b0 = None
    if a0 is not None:
        verdict = _two_cut_verdict(g, a0, b0, digits)
        if verdict is not None:
            results.append(_two_cut_result(g, T, a0, b0, verdict, digits))
    if not results:
        raise Unclassifiable(f"no admissible phase found at T={T}")
    regular = [r for r in results if r.status == "regular"]
    critical = [r for r in results if r.status == "critical"]
    if len(regular) == 1:
        chosen = regular[0]
        others = tuple(r for r in results if r is not chosen)
        return replace(chosen, alternates=others) if others else chosen
    if len(regular) > 1:
        return replace(
            regular[0],
            status="critical",
            note="ambiguous: both phases admissible at resolution",
            alternates=tuple(regular[1:]),
        )
    chosen = critical[0]
    rest = tuple(critical[1:])
    return replace(chosen, alternates=rest) if rest else chosen


# -- density -------------------------------------------------------------------------


def density(g: Potential, phase: PhaseResult, x, digits: int | None = None):
    """Eigenvalue density ρ(x) = h(x)·w₁₊(x)/(2πi·T) on the closed support."""
    digits = digits or default_digits()
    hc = phase.h_coeffs()
    if not hc:
        raise ValueError("phase carries no h-polynomial data")
    with mpmath.workdps(digits + 10):
        xf = mpf_of(x, digits + 10)
        lam = xf * xf
        T_f = mpf_of(phase.T, digits + 10)
        tol = _tol(digits)
        hval = _eval_numeric(hc, lam, digits + 10)
        if phase.s == 1:
            A = mpf_of(phase.endpoints[1], digits + 10)
            if lam > A + tol:
                raise OutsideSupport("|x| exceeds the support radius")
            rad = max(A - lam, mpmath.mpf(0))
            return hval * mpmath.sqrt(rad) / (2 * mpmath.pi * T_f)
        a2 = mpf_of(phase.endpoints[0], digits + 10)
        b2 = mpf_of(phase.endpoints[1], digits + 10)
        if lam < a2 - tol or lam > b2 + tol:
            raise OutsideSupport("x lies in the spectral gap or beyond the support")
        rad = max((lam - a2) * (b2 - lam), mpmath.mpf(0))
        return abs(xf) * hval * mpmath.sqrt(rad) / (2 * mpmath.pi * T_f)


# -- scanning --------------------------------------------------------------------------


def phase_scan(g: Potential, T_values: Sequence, digits: int | None = None) -> list[dict]:
    """Rows (g2, g4, T, s, alpha2, beta2, status) across a temperature sweep."""
    digits = digits or default_digits()
    g2 = g.gs[0]
    g4 = g.gs[1] if len(g.gs) > 1 else _ZERO
    rows = []
    for T in T_values:
        row = {"g2": g2, "g4": g4, "T": T, "s": 0, "alpha2": "", "beta2": "", "status": "invalid"}
        try:
            p = classify_phase(g, T, digits)
        except Unclassifiable:
            rows.append(row)
            continue
        row["s"] = p.s
        row["status"] = p.status
        if p.s == 1:
            row["alpha2"] = p.endpoints[1]
        else:
            row["alpha2"], row["beta2"] = p.endpoints
        rows.append(row)
    return rows
