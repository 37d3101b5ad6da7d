"""Planar phase structure of even-potential Hermitian matrix models.

Supports the one- and two-cut phases: endpoint equations, the polynomial
h entering the eigenvalue density, admissibility of candidate solutions
(density positivity plus the effective-potential inequalities outside and
between the cuts), and classification at a given temperature T.

One rule picks each phase's physical branch wherever it is solved for: the
first candidate by increasing r₀ (one cut) or a₀ (two cuts) that the one
verdict shared by both phases admits.

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

The two-cut endpoints solve W_a(a₀, b₀) = T = W_b(a₀, b₀) by exact
elimination: W_a − W_b = (a₀ − b₀)·L on the T-free branch curve L, and both
endpoints of every real solution are real roots of R(b₀, T) = Res_{a₀}(L,
W_a − T), isolated exactly at an exact T (a double root stays exact) and
numerically at an mpf T.  Quartics keep the closed form, which is this
elimination for p = 2 with no resultant to build.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import mpmath
from mpmath.libmp import NoConvergence

from .errors import (
    NoAdmissibleRoot,
    NoTwoCutSolution,
    OutsideSupport,
    PrecisionExhausted,
    Unclassifiable,
)
from .mpolys import eval_terms
from .polys import Poly, horner
from .potential import Potential
from .roots import real_roots
from .scalars import (
    DEFAULT_DIGITS,
    Scalar,
    as_fraction,
    is_exact,
    lifted,
    mpf_of,
    mpfs_of,
    negligible,
    sqrt_scalar,
    tolerance,
)
from .structured import branch_curve, branch_poly_part, branch_resultant, twocut_hodographs

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
    return Poly(_h_curve_coeffs(g, -(lo + hi), lo * hi, 1 if lo == 0 else 2))


def branch_density_positive(g: Potential, r0, digits: int | None = None) -> bool:
    """Is h̃ strictly positive across the support (0, 4·r0)?

    A sign test only — none of the effective-potential integrals.  Used when
    following a solution branch into regions where the global equilibrium
    measure has already jumped to another configuration, where the branch is
    still meaningful as long as its density stays positive.
    """
    digits = digits or DEFAULT_DIGITS
    endpoints, hc = _curve(g, (r0,), digits)
    return _h_status(_HTilde(hc, digits), *endpoints) == _CLEAR


def _curve(g: Potential, point: tuple, digits: int) -> tuple:
    """(λ-plane cut, h̃) of the s-cut phase at ``point``, s = len(point): (0, A)
    with A = 4r₀ at (r₀,), or (α², β²) at (a₀, b₀) with a₀ > b₀ > 0.  h̃ is
    exact when the point is; the two-cut endpoints are mpf."""
    with mpmath.workdps(digits + 10):
        point = lifted(point, digits + 10)
        if len(point) == 1:
            A = 4 * point[0]
            return (_ZERO, A), _h_curve_coeffs(g, -A, _ZERO, 1)
        a0, b0 = point
        hc = _h_curve_coeffs(g, -2 * (a0 + b0), (a0 - b0) ** 2, 2)
        a0, b0 = mpf_of(a0, digits + 10), mpf_of(b0, digits + 10)
        sab, s_sum = mpmath.sqrt(a0 * b0), a0 + b0
        return (s_sum - 2 * sab, s_sum + 2 * sab), hc


# -- sign analysis ------------------------------------------------------------


def _poly_real_roots_numeric(coeffs, digits: int) -> list:
    """Real roots of a polynomial given by mpf/Fraction coefficients."""
    cs = mpfs_of(coeffs, digits + 10)
    with mpmath.workdps(digits + 10):
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) <= 1:
            return []
        try:
            roots = mpmath.polyroots(list(reversed(cs)), maxsteps=200, extraprec=80)
        except NoConvergence as exc:
            # a (near-)multiple root, as at a critical or merging temperature
            raise PrecisionExhausted(
                f"the roots of a degree-{len(cs) - 1} polynomial did not converge "
                f"at {digits} digits"
            ) from exc
        return sorted(r.real for r in roots if negligible(r.imag, digits))


def _real_roots_of(coeffs, digits: int) -> list:
    """Real roots of Σ coeffs[k]·x^k, ascending: isolated exactly (rational
    ones stay Fractions) when every coefficient is exact, else numeric."""
    if all(is_exact(c) for c in coeffs):
        return [r.value for r in real_roots(Poly(coeffs), digits)]
    return _poly_real_roots_numeric(coeffs, digits)


class _HTilde:
    """h̃ of one candidate, shared by its verdict's checks: the coefficients,
    and their mpf lift and numeric real roots, each made once, when first asked."""

    def __init__(self, coeffs, digits: int):
        self.coeffs, self.digits = coeffs, digits

    @cached_property
    def lifted(self) -> list:
        return mpfs_of(self.coeffs, self.digits + 10)

    @cached_property
    def roots(self) -> list:
        return _poly_real_roots_numeric(self.coeffs, self.digits)


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


def _h_status_numeric(h: _HTilde, lo, hi) -> str:
    digits = h.digits
    with mpmath.workdps(digits + 10):
        lo_f, hi_f = mpf_of(lo, digits + 10), mpf_of(hi, digits + 10)
        tol = tolerance(digits)
        roots = [r for r in h.roots if lo_f - tol <= r <= hi_f + tol]
        pts = sorted({lo_f, hi_f, *roots})
        probes = list(pts) + [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        vals = [horner(h.lifted, x) for x in probes]
        if any(v < -tol for v in vals):
            return _BAD
        if roots or any(negligible(v, digits) for v in vals):
            return _TOUCH
        return _CLEAR


def _h_status(h: _HTilde, lo, hi) -> str:
    if all(is_exact(c) for c in h.coeffs) and is_exact(lo) and is_exact(hi):
        return _h_status_exact(Poly(h.coeffs), as_fraction(lo), as_fraction(hi), h.digits)
    return _h_status_numeric(h, lo, hi)


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


def _radicand(lam, branch):
    """Π(λ − e) over the λ-plane branch points e: w₁² at z² = λ."""
    out = mpmath.mpf(1)
    for e in branch:
        out *= lam - e
    return out


def _integrand(h: _HTilde, branch, sign: int):
    """x ↦ ±x^{s−1}·h̃(x²)·√Π(x² − e) over the s λ-plane branch points e in
    ``branch``: h·w₁ on the real z-axis wherever the radicand is positive,
    with the sign w₁ takes there.  Call it at the working precision."""
    cs, s = h.lifted, len(branch)
    es = [mpf_of(e, h.digits + 10) for e in branch]

    def integrand(x):
        lam = x * x
        return sign * x ** (s - 1) * horner(cs, lam) * mpmath.sqrt(_radicand(lam, es))

    return integrand


def _outside_inequality(h: _HTilde, branch) -> str:
    """∫_β^x h·w₁ ≥ 0 for x > β (the left inequality follows by parity).

    ``branch`` are the λ-plane branch points, β² the last.  The running
    integral is monotone between zeros of h̃, so testing it at every zero
    beyond the support decides the inequality.
    """
    digits = h.digits
    with mpmath.workdps(digits + 10):
        tol = tolerance(digits)
        top = mpf_of(branch[-1], digits + 10)
        stops = [mpmath.sqrt(r) for r in h.roots if r > top + tol]
        return _running_integral(_integrand(h, branch, 1), mpmath.sqrt(top), stops, digits)


def _gap_inequality(h: _HTilde, branch) -> str:
    """Two-cut only: ∫_{-α}^x h·w₁ ≥ 0 across the gap (-α, α), where w₁ < 0.

    When h̃ ≥ 0 on [0, α²] the running integral is a strict interior hump
    (it rises for x < 0, falls for x > 0, and vanishes only at ±α), so the
    inequality is strict for free.  Only a sign dip of h̃ inside the gap
    forces numeric evaluation at the interior critical points.
    """
    if _h_status(h, _ZERO, branch[0]) != _BAD:
        return _CLEAR
    digits = h.digits
    with mpmath.workdps(digits + 10):
        tol = tolerance(digits)
        a2 = mpf_of(branch[0], digits + 10)
        hroots = [r for r in h.roots if tol < r < a2 - tol]
        stops = sorted([mpmath.sqrt(r) for r in hroots] + [-mpmath.sqrt(r) for r in hroots])
        return _running_integral(_integrand(h, branch, -1), -mpmath.sqrt(a2), stops, digits)


def _verdict(s: int, endpoints, hc, digits: int) -> Optional[str]:
    """None if inadmissible, else "regular" / "critical", for the s-cut
    phase on the λ-plane cut ``endpoints`` with h̃ = ``hc`` (``_curve``).  It
    needs h̃ ≥ 0 on the support, then, for two cuts, the gap inequality, then
    the outside one.  A zero of h̃ on the closed support, a collapsed gap or a
    saturated inequality is critical."""
    lo, hi = endpoints
    if s == 2:
        with mpmath.workdps(digits + 10):
            if lo <= tolerance(digits):
                return "critical" if negligible(lo, digits) else None
    h = _HTilde(hc, digits)
    inside = _h_status(h, lo, hi)
    if inside != _CLEAR:
        return "critical" if inside == _TOUCH else None
    branch = endpoints[2 - s:]  # one cut's lower end λ = 0 is no branch point
    seen = []
    for inequality in (_gap_inequality, _outside_inequality)[2 - s:]:
        seen.append(inequality(h, branch))
        if seen[-1] == _BAD:
            return None
    return "critical" if _TOUCH in seen else "regular"


# -- one-cut --------------------------------------------------------------------


def _one_cut_candidates(g: Potential, T, digits: int) -> list:
    """The roots r₀ > 0 of W(r₀) = T, ascending."""
    with mpmath.workdps(digits + 10):
        *cs, t = lifted((*g.hodograph().coeffs, T), digits + 10)
        cs[0] -= t
        return [r for r in _real_roots_of(cs, digits) if r > 0]


def solve_one_cut(g: Potential, T, digits: int | None = None) -> Scalar:
    """The admissible one-cut r₀ with W(r₀) = T.

    Among positive roots of the hodograph equation, admissible means the
    induced density is nonnegative on the support and the outside
    inequality holds; if several qualify, the smallest — the branch
    continuous from T → 0⁺ — is returned (``_admissible``).
    """
    p = _admissible(g, T, 1, digits or DEFAULT_DIGITS)
    if p is None:
        raise NoAdmissibleRoot(f"no admissible one-cut solution at T={T}")
    return p.r0


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


@lru_cache(maxsize=32)
def _branch_elimination(g: Potential) -> tuple:
    """(W_a, L, R.terms) for ``g``'s two-cut endpoint equations, once per
    process for each potential: none of them depends on T (module notes)."""
    W_a, W_b = twocut_hodographs(g.gs)
    L = branch_curve(W_a, W_b)
    return W_a, L, branch_resultant(L, W_a).terms


def _two_cut_candidates(g: Potential, T, digits: int) -> list[tuple]:
    """Every (a₀, b₀) with a₀ > b₀ > 0 solving W_a = T = W_b, by increasing
    a₀, or NoTwoCutSolution with its reason.  Beyond quartics the real
    solutions are the pairs x ≥ y of real roots of R(·, T) with L(x, y) and
    W_a(x, y) − T negligible (module notes)."""
    if len(g.gs) == 2:
        return [_quartic_two_cut(g, T, digits)]
    W_a, L, R = _branch_elimination(g)
    solutions = []
    with mpmath.workdps(digits + 10):
        cs = [0] * (max(e[0] for e in R) + 1)
        for (k, j), c in R.items():
            c, t = lifted((c, T), digits + 10)
            cs[k] += c * t**j
        roots = _real_roots_of(cs, digits)
        L_f, W_f, zero = L.lift(digits + 10), W_a.lift(digits + 10), mpmath.mpf(0)
        for i, x in enumerate(roots):
            for y in roots[: i + 1]:
                a0, b0, t = lifted((x, y, T), digits + 10)
                if is_exact(t):
                    residues = (L.eval((a0, b0)), W_a.eval((a0, b0)) - t)
                else:
                    residues = (eval_terms(L_f, (a0, b0), zero),
                                eval_terms(W_f, (a0, b0), zero) - t)
                if all(negligible(r, digits) for r in residues):
                    solutions.append((a0, b0))
    if not solutions:
        raise NoTwoCutSolution("no real solution of W_a = T = W_b")
    ordered = [(a0, b0) for a0, b0 in solutions if a0 > b0 > 0]
    if not ordered:
        raise NoTwoCutSolution("no solution with a₀ > b₀ > 0")
    return ordered


def solve_two_cut(g: Potential, T, digits: int | None = None):
    """Endpoint data (a₀, b₀) with a₀ > b₀ > 0 for the two-cut phase: the
    closed form for quartics, else exact elimination on the branch curve
    (module notes).  The first admissible pair by increasing a₀ is returned
    (``_admissible``), the one ``classify_phase`` reports; a refusal says
    whether there is no real solution, none with a₀ > b₀ > 0, or none
    admissible."""
    p = _admissible(g, T, 2, digits or DEFAULT_DIGITS)
    if p is None:
        raise NoTwoCutSolution(f"no admissible two-cut solution at T={T}")
    return p.a0, p.b0


# -- classification ----------------------------------------------------------------


def _phase_result(s: int, endpoints, hc, status: str, T, **point) -> PhaseResult:
    """The result for one admissible candidate; h̃ goes to ``h`` when exact."""
    if all(is_exact(c) for c in hc):
        return PhaseResult(s, endpoints, status, Poly(hc), T, **point)
    return PhaseResult(
        s, endpoints, status, Poly(()), T, note="h carried numerically", h_numeric=tuple(hc),
        **point,
    )


def _admissible(g: Potential, T, s: int, digits: int) -> Optional[PhaseResult]:
    """The physical s-cut branch at T, or None: the first candidate by
    increasing r₀ (s = 1) or a₀ (s = 2) that ``_verdict`` admits.  The
    two-cut search's NoTwoCutSolution propagates."""
    if not lifted(T, digits) > 0:
        raise ValueError("need T > 0")
    if s == 1:
        points, names = [(r0,) for r0 in _one_cut_candidates(g, T, digits)], ("r0",)
    else:
        points, names = _two_cut_candidates(g, T, digits), ("a0", "b0")
    for point in points:
        endpoints, hc = _curve(g, point, digits)
        verdict = _verdict(s, endpoints, hc, digits)
        if verdict is not None:
            return _phase_result(s, endpoints, hc, verdict, T, **dict(zip(names, point)))
    return None


def classify_phase(g: Potential, T, digits: int | None = None) -> PhaseResult:
    """Decide the s = 1 or s = 2 phase at temperature T.

    Each phase contributes its physical branch (``_admissible``).  Regular
    solutions must pass all strict inequalities; a zero of h̃ on the closed
    support, a collapsed gap, or a saturated inequality marks the model
    critical.  If both phases survive at the working resolution (possible
    only on the critical curve) the result is reported critical with the
    competing candidate attached.
    """
    digits = digits or DEFAULT_DIGITS
    results: list[PhaseResult] = []
    for s in (1, 2):
        try:
            p = _admissible(g, T, s, digits)
        except NoTwoCutSolution:
            p = None
        if p is not None:
            results.append(p)
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


_OUTSIDE = {1: "|x| exceeds the support radius",
            2: "x lies in the spectral gap or beyond the support"}


def density(g: Potential, phase: PhaseResult, x, digits: int | None = None):
    """Eigenvalue density ρ(x) = h(x)·w₁₊(x)/(2πi·T) on the closed support:
    |x|^{s−1}·h̃(x²)·√(−Π(x² − e))/(2πT) over the s λ-plane branch points e."""
    digits = digits or DEFAULT_DIGITS
    hc = phase.h_coeffs()
    if not hc:
        raise ValueError("phase carries no h-polynomial data")
    with mpmath.workdps(digits + 10):
        xf = mpf_of(x, digits + 10)
        lam = xf * xf
        T_f = mpf_of(phase.T, digits + 10)
        tol = tolerance(digits)
        hval = horner(mpfs_of(hc, digits + 10), lam)
        lo, hi = (mpf_of(e, digits + 10) for e in phase.endpoints)
        if not lo - tol <= lam <= hi + tol:
            raise OutsideSupport(_OUTSIDE[phase.s])
        rad = max(-_radicand(lam, (lo, hi)[2 - phase.s:]), mpmath.mpf(0))
        return abs(xf) ** (phase.s - 1) * hval * mpmath.sqrt(rad) / (2 * mpmath.pi * T_f)


# -- scanning --------------------------------------------------------------------------


def phase_scan(g: Potential, T_values: Sequence, digits: int | None = None) -> list[dict]:
    """Rows (g2, g4, .., g_{2p}, T, s, alpha2, beta2, status) across a temperature sweep."""
    digits = digits or DEFAULT_DIGITS
    couplings = {f"g{2 * k}": c for k, c in enumerate(g.gs, start=1)}
    rows = []
    for T in T_values:
        row = {**couplings, "T": T, "s": 0, "alpha2": "", "beta2": "", "status": "invalid"}
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
