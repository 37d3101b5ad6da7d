"""Regular one-cut large-N expansion and the double-scaled critical series.

Both engines expand the same finite-lattice quadratic identity

    r(T) · (U + U(T-ε)) · (U + U(T+ε)) = λ (U² - 1),

truncated as an ε-series of curve elements (``wring.Lattice`` with the
partner y = U), and close each order with the string equation
∮ V_λ(λ) U dλ/(2πi) = T.  What changes between the two is the coefficient
ring, its derivation and the bookkeeping of orders:

* regular: U and r carry even powers of ε = 1/N; coefficients live in
  ℚ[ρ, 1/W'(ρ)] with ρ standing for r₀(T) — the localised ring
  ``mpolys._Loc`` the two-cut engine uses too, which divides the factors
  of W' out of every numerator — and are reduced to ℚ(ρ) only on output; the curve
  w² = λ(λ - 4ρ) moves with T, and d/dT acts as f ↦ f'/W'(ρ).
  Each even order is solved affinely — the unknown pair (U_k, r_k) enters
  linearly and the string integral eliminates r_k because
  ∮ V_λ · 2λ²/w³ = W'(ρ).

* double-scaled: T = T_c + ε̄^{2m} x with ε = ε̄^{2m+1}, so the lattice
  shift T → T ± ε becomes the unit shift x → x ± ε̄ and the curve freezes
  at r_c.  Corrections 𝔯_k(x) stay symbolic as differential-polynomial
  variables; the string ladder then yields the member of the Painlevé I
  hierarchy at order 2m and the higher flow equations beyond.

Odd orders of the defect must cancel by the ε → -ε symmetry of the
identity; the engines check this rather than assume it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce

import mpmath

from .diffpoly import DiffPoly, XRelation, scaled_lattice, string_ladder
from .errors import CriticalPointHit, certify
from .mpolys import MPoly, _Loc, loc_factors
from .phase import _one_cut_candidates, branch_density_positive, solve_one_cut
from .polys import Poly, RationalFunc
from .potential import Potential
from .roots import rational_roots, real_roots
from .scalars import (
    DEFAULT_DIGITS,
    Scalar,
    as_fraction,
    is_exact,
    lifted,
    mpf_of,
    negligible,
    scalar_str,
    working_digits,
)
from .structured import c_weight
from .wring import Defect, Lattice, WElem, _pshift


# -- pole-basis extraction ---------------------------------------------------


def _pole_basis(elem: WElem, four_rc, zero) -> tuple:
    """Write elem = U₀ · Σ_j u_j/(λ - 4r_c)^j; return (u₀, [u_1, .., u_M]).

    elem·w/λ = P(λ)/(λ^M (λ - 4r_c)^M), so the claimed shape says exactly
    that λ^M divides P and that Q(ν) = (P/λ^M)(ν + 4r_c) = Σ_j u_j ν^{M-j}
    has degree ≤ M; both are certified, and the table is read off Q.  Only
    ring operations occur, so ``four_rc`` (4r_c) and ``zero`` may live in any
    coefficient ring; every entry is returned in the ring of ``zero``.
    """
    P, M = elem.mul_w().div_lambda().even_numerator()
    certify(not any(P[:M]), "element has a pole at λ = 0")
    Q = _pshift(P[M:], four_rc)
    certify(len(Q) <= M + 1, "element has a part outside the U₀-pole basis")
    Q = [zero + c for c in Q] + [zero] * (M + 1 - len(Q))
    return Q[M], [Q[M - j] for j in range(1, M + 1)]


# -- domain types --------------------------------------------------------------


@dataclass(frozen=True)
class OneCutExpansion:
    """r(T, ε) ≃ Σ_k r_k ε^{2k} with each r_k an exact rational function of r₀.

    For the weight e^{-(N/T)V}, ε = T/N: r_{N,N} ≃ Σ_k r_k (T/N)^{2k}.
    """

    g: Potential
    T: Scalar
    r0: Scalar
    coeffs: tuple  # RationalFunc in ρ = r₀, indices 0..K (coeffs[0] is ρ itself)
    K: int

    def values(self, digits: int | None = None) -> list:
        """The coefficients evaluated at this expansion's r₀."""
        digits = working_digits(digits)
        with mpmath.workdps(digits):
            x = lifted(self.r0, digits)
            return [c(x) for c in self.coeffs]

    def to_json(self, digits: int | None = None) -> dict:
        return {
            "r0": scalar_str(self.r0),
            "coeffs": [c.render("r0") for c in self.coeffs],
            "eval": {
                "T": scalar_str(self.T),
                "values": [scalar_str(v) for v in self.values(digits)],
            },
        }


@dataclass(frozen=True)
class USeriesOrder:
    """U_k = U₀ Σ_j U_{k,j}/(λ-4ρ)^j; poles[j-1] is U_{k,j}, and ``zero``
    the 0 of their kind: a RationalFunc, or a scalar once evaluated."""

    k: int
    element: WElem
    poles: tuple
    zero: object = RationalFunc.const(0)

    def pole(self, j: int):
        if 1 <= j <= len(self.poles):
            return self.poles[j - 1]
        return self.zero


@dataclass(frozen=True)
class OneCutCritical:
    """A singular one-cut hodograph point: W', .., W^{(m-1)} vanish at r_c."""

    r_c: Scalar
    T_c: Scalar
    m: int
    c_m: Scalar


@dataclass(frozen=True)
class ScaledOrder:
    k: int
    element: WElem
    poles: tuple  # U^{[k,j]} as DiffPoly, j = 1..k

    def pole(self, j: int) -> DiffPoly:
        if 1 <= j <= len(self.poles):
            return self.poles[j - 1]
        return DiffPoly.zero()


@dataclass(frozen=True)
class ScaledOneCut:
    """Double-scaled series at a critical point, with its constraint ladder.

    ladder[k] is the ε̄^{2k} string relation; entries below m are trivially
    zero (that is the scaling-exponent check), entry m is the Painlevé I
    hierarchy member for 𝔯₁, and entries beyond m chain in 𝔯₂, 𝔯₃, …
    """

    crit: OneCutCritical
    K: int
    orders: tuple
    ladder: tuple

    def painleve_relation(self) -> XRelation:
        return self.ladder[self.crit.m]


# -- the regular engine ---------------------------------------------------------


def _ratfunc(c: _Loc) -> RationalFunc:
    """The one reduction of an engine coefficient, applied on output."""
    q = c.to_ratfunc()  # one variable: MPoly and Poly share their tables
    return RationalFunc(*(Poly._trusted(p.den, p.nums) for p in (q.num, q.den)))


class _RegularEngine:
    """The regular one-cut expansion with coefficients in ℚ[ρ, 1/W'(ρ)].

    The ring is ``mpolys._Loc`` localised at the factors of W'(ρ), the one
    denominator the expansion produces (d/dT = (1/W')·d/dρ): a linear one
    at each rational root and the rest as one, certified to multiply back to
    W'; callers reduce to ``RationalFunc`` only what they output.  Every
    certificate raises ``Mismatch`` and survives ``python -O``."""

    def __init__(self, g: Potential):
        self.W = g.hodograph()
        wp = self.W.derivative()
        # W' = Π (vρ - u)^m · rest over its rational roots u/v, in integer
        # factors (a unit rest folded in) that make no new denominator
        lines = [(Poly((-r.numerator, r.denominator)), m) for r, m in rational_roots(wp)]
        back = reduce(Poly.__mul__, (f**m for f, m in lines), Poly.one())
        rest = wp.divmod(back)[0]
        certify(back * rest == wp, "the factors of W' do not multiply back to W'")
        factors = [f for f, _ in lines] + [rest]
        if rest.degree < 1 and len(factors) > 1:
            factors[-2:] = [factors[-2] * rest]
        self.fs = loc_factors(*(MPoly._trusted(1, f.den, f.nums) for f in factors))
        self.Wp = Wp = self._c(wp)
        self.rho = self._c(Poly.x())
        d1 = self._c(Poly((0, -4)))  # -4ρ
        self.d0 = d0 = self._c(Poly.zero())
        one = self._c(Poly.one())
        dw2 = [d0, self._c(Poly.const(-4)) / Wp]  # d(w²)/dT = -4λ·dρ/dT
        self.lat = Lattice(d1, d0, one, lambda f: f.diff(0) / Wp, dw2)
        self.u0 = WElem.from_poly(d1, d0, [d0, one], wpow=1)
        self.vp = list(g.v_lambda().coeffs)
        # 2U₀²/w = 2λ²/w³, the coefficient of r_k in the order-2k equation
        self.q_elem = (self.u0 * self.u0).scale(Fraction(2)).div_w()
        q_weight = self.q_elem.contour_pair(self.vp)
        certify(q_weight == Wp, "string weight of the r_k term must be W'")

    def _c(self, p: Poly) -> _Loc:
        return _Loc(self.fs, MPoly._trusted(1, p.den, p.nums))

    def run(self, K: int) -> tuple[tuple, tuple]:
        """Solve orders 0..K; returns ((r₀..r_K), (U₀..U_K)) in its ring.

        Order k solves only the ε^{2k} coefficient on derivative towers kept
        for this run (``wring.Defect``), certifying ε^{2k-1} before and ε^{2k}
        after it: every ε^j, j ≤ 2K, of the defect once, on its final value.
        No gcd is taken here.  Scalar slot padding stays ``Fraction``.
        """
        r_list, u_list = [self.rho], [self.u0]
        F = Defect(self.lat, u_list, u_list, r_list, 2)
        F.certify(0, "defect")
        for k in range(1, K + 1):
            F.certify(2 * k - 1, "odd defect order")
            base = F.coefficient(2 * k).div_w().scale(Fraction(1, 2))
            r_k = -base.contour_pair(self.vp) / self.Wp
            u_list.append(base + self.q_elem.scale(r_k))
            r_list.append(r_k)
            F.certify(2 * k, "defect")
        # The residual holds for whatever d/dT the ring implements, so the
        # derivation is checked against the closed form of r₁ instead:
        # r₁ = ρ (2W''² - W'W''') / (12 W'⁴).
        if K:
            Wp, Wpp, W3 = (self.W.derivative(n) for n in (1, 2, 3))
            r1 = self._c(Poly.x() * (Wpp * Wpp * 2 - Wp * W3) * Fraction(1, 12)) / self.Wp**4
            certify(r_list[1] == r1, "r₁ differs from ρ(2W''² - W'W''')/(12W'⁴)")
        # and the string equation at every order
        certify(
            u_list[0].contour_pair(self.vp) == self._c(self.W),
            "order-0 string equation must give W(ρ) = T",
        )
        for k in range(1, K + 1):
            certify(not u_list[k].contour_pair(self.vp), f"string equation fails at order {k}")
        return tuple(r_list), tuple(u_list)


@lru_cache(maxsize=32)
def _regular(g: Potential, K: int) -> tuple[tuple, tuple]:
    """r₀..r_K, each reduced once to a ``RationalFunc`` of ρ, and U₀..U_K in
    the engine's ring, once per process for each (potential, K); the solve
    does not depend on T.

    Every call solves orders 0..K afresh, so its cost does not depend on what
    the process asked for before; only a repeat of the same K is served.  The
    engine and its derivative towers are dropped on return.
    """
    r_list, u_list = _RegularEngine(g).run(K)
    return tuple(_ratfunc(r) for r in r_list), u_list


def expand_regular(
    g: Potential, T, K: int, digits: int | None = None
) -> OneCutExpansion:
    """Large-N coefficients r₀..r_K on the one-cut branch through (g, T)."""
    if K < 0:
        raise ValueError("truncation order must be nonnegative")
    digits = working_digits(digits)
    r0 = solve_one_cut(g, T, digits)
    wp = g.hodograph().derivative()
    with mpmath.workdps(digits):
        singular = negligible(wp(lifted(r0, digits)), digits)
    if singular:
        raise CriticalPointHit(
            f"W'(r0) = 0 at T = {scalar_str(T)}; use the double-scaling path"
        )
    coeffs, _ = _regular(g, K)
    return OneCutExpansion(g=g, T=T, r0=r0, coeffs=coeffs, K=K)


def u_series_coefficients(g: Potential, r0=None, K: int = 1) -> list[USeriesOrder]:
    """U₀..U_K with their pole tables U_{k,j}.

    The tables are read off the memo's U_k in the engine's ring
    ℚ[ρ, 1/W'(ρ)] on every call; each pole and each element coefficient is
    then reduced once to a ``RationalFunc`` of ρ.
    With r0 = None the tables stay rational functions of ρ; an exact r0
    evaluates them at that point, and an mpf r0 at ``DEFAULT_DIGITS``.
    """
    if K < 0:
        raise ValueError("truncation order must be nonnegative")
    _, u_list = _regular(g, K)
    # U₀ lives on w² = λ(λ - 4ρ): its branch data are d1 = -4ρ and d0 = 0
    four, zero = -u_list[0].d1, u_list[0].d0

    tables = []
    for k, u_k in enumerate(u_list):
        poles = ()
        if k:
            u0_part, poles = _pole_basis(u_k, four, zero)
            certify(not u0_part, "U_k acquired a pole-free part")
            poles = tuple(_ratfunc(p) for p in poles)
        tables.append(USeriesOrder(k=k, element=u_k.map_coeffs(_ratfunc), poles=poles))
    if r0 is None:
        return tables
    with mpmath.workdps(DEFAULT_DIGITS):
        x = lifted(r0)
        return [replace(o, poles=tuple(p(x) for p in o.poles), zero=0 * x) for o in tables]


# -- critical points -------------------------------------------------------------


def _near_branch_regular(g: Potential, r_c, T_s, radius, digits: int) -> bool:
    """Does W(r) = T_s have a density-positive root within ``radius`` of r_c?"""
    with mpmath.workdps(digits + 10):
        centre, radius = mpf_of(r_c, digits + 10), mpf_of(radius, digits + 10)
    for r0 in _one_cut_candidates(g, T_s, digits):
        with mpmath.workdps(digits + 10):
            near = abs(mpf_of(r0, digits + 10) - centre) <= radius
        if near and branch_density_positive(g, r0, digits):
            return True
    return False


def find_critical(g: Potential, digits: int | None = None) -> tuple[OneCutCritical, ...]:
    """All admissible singular one-cut points of the hodograph, by order m.

    Admissible means r_c > 0, T_c = W(r_c) > 0, and the point borders a
    branch-regular region: at T_c ± 10⁻³ some nearby hodograph root carries
    a strictly positive density.  (The equilibrium-measure inequalities away
    from the support may already fail there — a critical point reached along
    a metastable branch is still a critical point.)
    """
    digits = working_digits(digits)
    W = g.hodograph()
    Wp = W.derivative()
    delta = Fraction(1, 1000)
    roots = real_roots(Wp, digits)
    approx = [mpf_of(r.value, digits) for r in roots]
    found = []
    for i, root in enumerate(roots):
        r_c = root.value
        if not approx[i] > 0:
            continue
        m = root.multiplicity + 1
        with mpmath.workdps(digits + 10):
            T_c = W(r_c if root.exact else approx[i])
            if not T_c > 0:
                continue
            c_m = c_weight(W, m)(r_c)
            # the sampling window must stay local to this branch point: never
            # wider than half the gap to the next extremum of the hodograph
            radius = max(mpmath.mpf(1), abs(approx[i])) / 4
            for j, other in enumerate(approx):
                if j != i:
                    radius = min(radius, abs(approx[i] - other) / 2)
        boundary = any(
            _near_branch_regular(g, r_c, T_c + s * delta, radius, digits)
            for s in (-1, 1)
        )
        if boundary:
            found.append(OneCutCritical(r_c=r_c, T_c=T_c, m=m, c_m=c_m))
    found.sort(key=lambda c: mpf_of(c.r_c, digits))
    return tuple(found)


# -- the double-scaled series ------------------------------------------------------


@lru_cache(maxsize=32)
def _scaled(g: Potential, crit: OneCutCritical, K: int) -> ScaledOneCut:
    """``scaled_series`` once per process for each (potential, critical point, K).

    The ε̄-expansion at a one-cut critical point, with DiffPoly coefficients
    over ℚ: U^{[0]}..U^{[K]} are solved and certified per order as in
    ``_RegularEngine.run``, on a ``wring.Defect`` local to this call, then
    the string ladder and the pole tables are read off them.  Every call
    solves orders 0..K afresh, so its cost does not depend on what the
    process asked for before; only a repeat of the same K is served.
    """
    if not is_exact(crit.r_c):
        raise ValueError("double-scaled series needs an exact critical point")
    rc, Tc = as_fraction(crit.r_c), as_fraction(crit.T_c)
    lat, u0 = scaled_lattice(rc)
    vp = list(g.v_lambda().coeffs)
    r_list = [DiffPoly.const(rc)] + [DiffPoly.var(f"r{k}") for k in range(1, K + 1)]
    u_list = [u0]
    F = Defect(lat, u_list, u_list, r_list, 2)
    F.certify(0, "scaled defect")
    for k in range(1, K + 1):
        F.certify(2 * k - 1, "odd scaled defect order")
        u_list.append(F.coefficient(2 * k).div_w().scale(Fraction(1, 2)))
        F.certify(2 * k, "scaled defect")

    ladder = string_ladder(u_list, vp, Tc, crit.m)
    for k in range(1, min(crit.m, K + 1)):
        certify(
            ladder[k].p.is_zero(),
            "constraint below the critical order did not vanish; "
            "the scaling exponent would be wrong",
        )
    orders = [ScaledOrder(k=0, element=u0, poles=())]
    for k in range(1, K + 1):
        u0_part, poles = _pole_basis(u_list[k], 4 * rc, DiffPoly.zero())
        certify(not u0_part, "U^[k] acquired a pole-free part")
        certify(len(poles) <= k, "double-scaled pole depth exceeded its order")
        orders.append(ScaledOrder(k=k, element=u_list[k], poles=tuple(poles)))
    return ScaledOneCut(crit=crit, K=K, orders=tuple(orders), ladder=tuple(ladder))


def scaled_series(g: Potential, crit: OneCutCritical, K: int) -> ScaledOneCut:
    """Double-scaled one-cut series to order ε̄^{2K} with its constraint ladder."""
    if not isinstance(crit, OneCutCritical):
        raise TypeError(
            f"scaled_series needs a OneCutCritical from find_critical, not a "
            f"{type(crit).__name__}; a merging point goes to twocut.symmetric_scaled_series"
        )
    if K < crit.m:
        raise ValueError("need K ≥ m to reach the Painlevé relation")
    return _scaled(g, crit, K)
