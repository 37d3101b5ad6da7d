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
and α²β² = (a₀-b₀)², never the irrational endpoints themselves.  Beyond
quartics the two-cut endpoint equations e₀(σ, τ) = 0, e₁(σ, τ) = T are
exact polynomials in (σ, τ) = (α², β²), and so is their Jacobian.
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
from .scalars import (
    Scalar,
    as_fraction,
    default_digits,
    is_exact,
    lifted,
    mpf_of,
    negligible,
    sqrt_scalar,
    tolerance,
)
from .structured import branch_poly_part, endpoint_residues

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
    w² = λ² + d1·λ + d0.  Exact when d1, d0 are; mpf at the working
    precision otherwise."""
    d1, d0, *vp = lifted((d1, d0, *g.v_lambda().coeffs), mpmath.mp.dps)
    nums = [2 * c for c in vp]
    if s == 1:
        nums = [0 * nums[0]] + nums
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
    endpoints, hc = _one_cut_curve(g, r0, digits)
    return _h_status(hc, *endpoints, digits) == _CLEAR


def _one_cut_curve(g: Potential, r0, digits: int) -> tuple:
    """((0, A), h̃) for the one-cut support, A = 4r₀; exact when r₀ is."""
    with mpmath.workdps(digits + 10):
        A = 4 * lifted(r0, digits + 10)
        return (_ZERO, A), _h_curve_coeffs(g, -A, _ZERO, 1)


def _two_cut_curve(g: Potential, a0, b0, digits: int) -> Optional[tuple]:
    """((α², β²), h̃) for the two-cut phase at (a₀, b₀), or None unless
    a₀ > b₀ > 0.  h̃ is exact when a₀ and b₀ are; the endpoints are mpf."""
    with mpmath.workdps(digits + 10):
        a0, b0 = lifted((a0, b0), digits + 10)
        if not (b0 > 0 and a0 > b0):
            return None
        hc = _h_curve_coeffs(g, -2 * (a0 + b0), (a0 - b0) ** 2, 2)
        a0, b0 = mpf_of(a0, digits + 10), mpf_of(b0, digits + 10)
        sab, s_sum = mpmath.sqrt(a0 * b0), a0 + b0
        return (s_sum - 2 * sab, s_sum + 2 * sab), hc


# -- sign analysis ------------------------------------------------------------


def _poly_real_roots_numeric(coeffs, digits: int) -> list:
    """Real roots of a polynomial given by mpf/Fraction coefficients."""
    with mpmath.workdps(digits + 10):
        cs = [mpf_of(c, digits + 10) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) <= 1:
            return []
        roots = mpmath.polyroots(list(reversed(cs)), maxsteps=200, extraprec=80)
        return sorted(r.real for r in roots if negligible(r.imag, digits))


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
        tol = tolerance(digits)
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
        if roots or any(negligible(v, digits) for v in vals):
            return _TOUCH
        return _CLEAR


def _h_status(coeffs, lo, hi, digits: int) -> str:
    if all(is_exact(c) for c in coeffs) and is_exact(lo) and is_exact(hi):
        return _h_status_exact(Poly(coeffs), as_fraction(lo), as_fraction(hi), digits)
    return _h_status_numeric(coeffs, lo, hi, digits)


# -- effective-potential inequalities ------------------------------------------


def _running_integral(integrand, start, stops, digits: int) -> str:
    """Sign of ∫_start^x integrand over every x in ``stops``: bad if one is
    negative beyond the tolerance, touch if one is negligible, else clear."""
    verdict = _CLEAR
    for x in stops:
        val = mpmath.quad(integrand, [start, x])
        if val < -tolerance(digits):
            return _BAD
        if negligible(val, digits):
            verdict = _TOUCH
    return verdict


def _outside_inequality(h_coeffs, lam_roots, digits: int) -> str:
    """∫_β^x h·w₁ ≥ 0 for x > β (the left inequality follows by parity).

    ``lam_roots`` are the λ-plane branch points.  The running integral is
    monotone between zeros of h̃, so testing it at every zero beyond the
    support decides the inequality.
    """
    with mpmath.workdps(digits + 10):
        tol = tolerance(digits)
        top = mpf_of(max(lam_roots, key=lambda r: mpf_of(r, digits + 10)), digits + 10)
        hroots = [r for r in _poly_real_roots_numeric(h_coeffs, digits) if r > top + tol]
        two_cut = len(lam_roots) == 2
        roots_f = [mpf_of(r, digits + 10) for r in lam_roots]

        def integrand(x):
            lam = x * x
            acc = mpmath.mpf(1)
            for r in roots_f:
                acc *= lam - r
            w = mpmath.sqrt(acc)
            h = _eval_numeric(h_coeffs, lam, digits + 10)
            return (x * h if two_cut else h) * w

        stops = [mpmath.sqrt(r) for r in hroots]
        return _running_integral(integrand, mpmath.sqrt(top), stops, digits)


def _gap_inequality(h_coeffs, alpha2, beta2, digits: int) -> str:
    """Two-cut only: ∫_{-α}^x h·w₁ ≥ 0 across the gap (-α, α).

    When h̃ ≥ 0 on [0, α²] the running integral is a strict interior hump
    (it rises for x < 0, falls for x > 0, and vanishes only at ±α), so the
    inequality is strict for free.  Only a sign dip of h̃ inside the gap
    forces numeric evaluation at the interior critical points.
    """
    if _h_status(h_coeffs, _ZERO, alpha2, digits) != _BAD:
        return _CLEAR
    with mpmath.workdps(digits + 10):
        tol = tolerance(digits)
        a2 = mpf_of(alpha2, digits + 10)
        b2 = mpf_of(beta2, digits + 10)

        def integrand(x):
            lam = x * x
            w_gap = -mpmath.sqrt((a2 - lam) * (b2 - lam))  # w₁ < 0 in the gap
            return x * _eval_numeric(h_coeffs, lam, digits + 10) * w_gap

        hroots = [
            r for r in _poly_real_roots_numeric(h_coeffs, digits) if tol < r < a2 - tol
        ]
        stops = sorted([mpmath.sqrt(r) for r in hroots] + [-mpmath.sqrt(r) for r in hroots])
        return _running_integral(integrand, -mpmath.sqrt(a2), stops, digits)


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


def _one_cut_verdict(endpoints, hc, digits: int) -> Optional[str]:
    """None if inadmissible, else "regular" / "critical"; see ``_one_cut_curve``."""
    inside = _h_status(hc, *endpoints, digits)
    if inside == _BAD:
        return None
    if inside == _TOUCH:
        # a zero of h on the closed support marks the model critical outright
        return "critical"
    outside = _outside_inequality(hc, [endpoints[1]], digits)
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
    if not lifted(T, digits) > 0:
        raise ValueError("need T > 0")
    for root in _one_cut_candidates(g, T, digits):
        if _one_cut_verdict(*_one_cut_curve(g, root.value, digits), digits) is not None:
            return root.value
    raise NoAdmissibleRoot(f"no admissible one-cut solution at T={T}")


# -- two-cut --------------------------------------------------------------------


def _quartic_two_cut(g: Potential, T, digits: int):
    with mpmath.workdps(digits + 5):
        g2, g4, T = lifted((*g.gs, T), digits + 5)
        disc = g2 * g2 - 4 * T * g4
        if disc <= 0:
            raise NoTwoCutSolution("inside the one-cut region (discriminant ≤ 0)")
        root, g2, den = lifted((sqrt_scalar(disc, digits), g2, 4 * g4), digits + 5)
        a0 = (root - g2) / den
        b0 = (-root - g2) / den
    if b0 <= 0:
        raise NoTwoCutSolution("lower endpoint collapsed: b₀ ≤ 0")
    return a0, b0


def _endpoint_equations(g: Potential, T, digits: int):
    """(residuals, jacobian) of e₀ = 0, e₁ = T at mpf (σ, τ): the exact
    ``endpoint_residues`` and their partials, lifted once at ``digits`` and
    each summed by one ``fdot`` over shared monomials in σ and τ."""
    e0, e1 = endpoint_residues(g.gs)
    polys = [[(e, mpf_of(c, digits)) for e, c in p.terms.items()]
             for p in (e0, e1, e0.diff(0), e0.diff(1), e1.diff(0), e1.diff(1))]
    top, T_f = e1.total_degree(), mpf_of(T, digits)

    def dots(rows, sigma, tau):
        sp, tp = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for _ in range(top):
            sp.append(sp[-1] * sigma)
            tp.append(tp[-1] * tau)
        mon = {(i, j): sp[i] * tp[j] for i in range(top + 1) for j in range(top + 1 - i)}
        return [mpmath.fdot((c, mon[e]) for e, c in row) for row in rows]

    def residuals(sigma, tau):
        e0, e1 = dots(polys[:2], sigma, tau)
        return e0, e1 - T_f

    return residuals, lambda sigma, tau: dots(polys[2:], sigma, tau)


def solve_two_cut(g: Potential, T, digits: int | None = None):
    """Endpoint data (a₀, b₀) with a₀ > b₀ > 0 for the two-cut phase.

    Quartic families use the closed form; higher-degree potentials run a
    damped Newton iteration on (σ, τ) = (α², β²) seeded from a coarse grid.
    Its equations e₀ = 0, e₁ = T are the exact polynomials of
    ``structured.endpoint_residues``, built once per call, and its Jacobian
    is their exact derivative.
    """
    digits = digits or default_digits()
    if len(g.gs) == 2:
        return _quartic_two_cut(g, T, digits)
    with mpmath.workdps(2 * digits):
        residuals, jacobian = _endpoint_equations(g, T, 2 * digits)
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
                e0, e1 = residuals(sigma, tau)
                n = abs(e0) + abs(e1)
                if best is None or n < best[0]:
                    best = (n, sigma, tau)
        _, sigma, tau = best
        sigma, tau = mpmath.mpf(sigma) * 1, tau * 1
        tol = mpmath.mpf(10) ** (-digits)
        converged = False
        for _ in range(160):
            e0, e1 = residuals(sigma, tau)
            if abs(e0) + abs(e1) < tol:
                converged = True
                break
            j00, j01, j10, j11 = jacobian(sigma, tau)
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
                    n0, n1 = residuals(s_new, t_new)
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


def _two_cut_verdict(endpoints, hc, digits: int) -> Optional[str]:
    """None if inadmissible, else "regular" / "critical"; see ``_two_cut_curve``."""
    a2, b2 = endpoints
    with mpmath.workdps(digits + 10):
        if a2 <= tolerance(digits):
            return "critical" if negligible(a2, digits) else None
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


def _phase_result(s: int, endpoints, hc, status: str, T, **point) -> PhaseResult:
    """The result for one admissible candidate; h̃ goes to ``h`` when exact."""
    if all(is_exact(c) for c in hc):
        return PhaseResult(s, endpoints, status, Poly(hc), T, **point)
    return PhaseResult(
        s, endpoints, status, Poly(()), T, note="h carried numerically", h_numeric=tuple(hc),
        **point,
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
        curve = _one_cut_curve(g, root.value, digits)
        verdict = _one_cut_verdict(*curve, digits)
        if verdict is not None:
            results.append(_phase_result(1, *curve, verdict, T, r0=root.value))
            break  # smallest admissible root is the physical branch
    try:
        a0, b0 = solve_two_cut(g, T, digits)
    except (NoTwoCutSolution, Unclassifiable):
        a0 = b0 = None
    curve = None if a0 is None else _two_cut_curve(g, a0, b0, digits)
    if curve is not None:
        verdict = _two_cut_verdict(*curve, digits)
        if verdict is not None:
            results.append(_phase_result(2, *curve, verdict, T, a0=a0, b0=b0))
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
        tol = tolerance(digits)
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
