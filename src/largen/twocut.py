"""Two-cut expansions: the interleaved endpoint pair and the merged-cut limit.

On a two-cut solution the recurrence coefficients do not converge — they
oscillate between two branches with the parity of the index, so the objects
to expand are the interleaved limits a(T, ε) and b(T, ε) (odd and even
subsequence) together with the pair of curve functions V, W satisfying

    a · (V + W(T-ε)) · (V + W(T+ε)) = λ (V² - 1),
    b · (W + V(T-ε)) · (W + V(T+ε)) = λ (W² - 1),

on the genus-one curve w² = λ² - 2(a₀+b₀)λ + (b₀-a₀)².  Both are the one
``wring.Lattice`` identity, each with the other function as its partner in
the shifted slots; the merged limit below takes the partner 𝕍(-ε̄).
Everything is symmetric under a ↔ b (swapping the roles of the two
subsequences), and the engines certify that rather than assume it.

The module has three layers:

* ``expand_two_cut_regular`` — even-ε corrections (a_k, b_k) as exact
  rational functions of the endpoints, closed per order by the pair of
  string equations; the solve matrix is the Jacobian of the planar
  hodograph system, so regularity of the phase point is exactly its
  nonvanishing.

* ``find_merging`` — the points where the two cuts touch, as roots of the
  merged string Ψ(r_c) = ∮ V_λ/w_c = 0 on the curve w_c² = λ(λ - 4r_c);
  the σ-moments φ_k, the σ-derivatives of the planar endpoint functional
  ∮ V_λ·w at the pinch, grade how the cuts merge.

* ``symmetric_scaled_series`` — at a merging point of order m the scaling
  T = T_c + ε̄^{2m} x (with N^{-1} = ε̄^{2m+1}) collapses both equations into
  one for 𝕍 with the combination rule 𝕍(-ε̄) in the shifted slots; the
  corrections 𝔞_k(x) stay symbolic and the string ladder produces the
  constraints that ultimately close into a Painlevé II hierarchy member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .diffpoly import DiffPoly, XRelation, scaled_lattice, string_ladder
from .errors import (
    Mismatch,
    NoTwoCutSolution,
    SingularHodograph,
    certify,
    checked_index,
)
# ``_Loc`` is bound to the shared ring class itself, not a subclass: the
# benchmark's spans wrap ``twocut:_Loc``'s operations by looking each one up
# in the class's own __dict__, where a subclass would have none of them.
from .mpolys import MPoly, _Loc, loc_factors, swap_vars
from .phase import solve_two_cut
from .potential import Potential
from .roots import real_roots
from .scalars import (
    Scalar,
    as_fraction,
    is_exact,
    lifted,
    mpf_of,
    negligible,
    rationalize,
    scalar_str,
    working_digits,
)
from .structured import gamma_moment, phi_moment, psi_poly, twocut_hodographs
from .wring import Defect, Lattice, WElem, _pmul, _pshift

_F0 = Fraction(0)
_F1 = Fraction(1)


# -- coefficient helpers ------------------------------------------------------


def _solvable(elem: WElem, times: int, what: str) -> WElem:
    """elem/λ^times.  The exact division is the solvability certificate of an
    order, so a remainder raises Mismatch rather than WElem's ValueError."""
    try:
        for _ in range(times):
            elem = elem.div_lambda()
    except ValueError as exc:
        raise Mismatch(f"solvability: {what} leaves a remainder on division by λ") from exc
    return elem


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class TwoCutExpansion:
    """a(T, ε) ≃ Σ a_k ε^{2k}, b(T, ε) ≃ Σ b_k ε^{2k} on a two-cut branch.

    ε = T/N for the weight e^{-(N/T)V}: r_{N,N} ≃ Σ b_k ε^{2k} (N even), Σ a_k ε^{2k} (N odd).

    ``coeffs[k]`` is the pair (a_k, b_k) as rational functions of the
    endpoints; coeffs[0] is the endpoint pair itself.  ``slopes`` holds
    (da₀/dT, db₀/dT) in the same ring — the T-derivatives that the lattice
    shift injects into every higher order.
    """

    g: Potential
    T: Scalar
    a0: Scalar
    b0: Scalar
    coeffs: tuple  # ((a_k, b_k) as MRatFunc in (a0, b0)), k = 0..K
    slopes: tuple  # (da0/dT, db0/dT)
    K: int

    def pair(self, k: int) -> tuple:
        return self.coeffs[checked_index(k, self.K, f"expansion truncated at ε^{2 * self.K}")]

    def values(self, digits: int | None = None) -> list:
        """[(a_k, b_k)] evaluated at this expansion's endpoint pair."""
        digits = working_digits(digits)
        with mpmath.workdps(digits):
            pt = lifted((self.a0, self.b0), digits)
            return [(ak.eval(pt), bk.eval(pt)) for ak, bk in self.coeffs]

    def slope_values(self, digits: int | None = None) -> tuple:
        digits = working_digits(digits)
        with mpmath.workdps(digits):
            pt = lifted((self.a0, self.b0), digits)
            return (self.slopes[0].eval(pt), self.slopes[1].eval(pt))

    def to_json(self, digits: int | None = None) -> dict:
        names = ("a0", "b0")
        vals = self.values(digits)
        da, db = self.slope_values(digits)
        return {
            "a0": scalar_str(self.a0),
            "b0": scalar_str(self.b0),
            "coeffs": [
                {"a": ak.render(names), "b": bk.render(names)}
                for ak, bk in self.coeffs
            ],
            "eval": {
                "T": scalar_str(self.T),
                "a": [scalar_str(v[0]) for v in vals],
                "b": [scalar_str(v[1]) for v in vals],
                "da0_dT": scalar_str(da),
                "db0_dT": scalar_str(db),
            },
        }


@dataclass(frozen=True)
class MergingPoint:
    """A point where the two cuts touch: r_c parametrizes the merged support.

    m grades the contact: the first m-1 σ-moments φ_k vanish and φ_m does
    not, so the density behaves as x^{2m} at the pinch.  γ₁ ≠ 0 is the
    transversality of the surviving endpoint.
    """

    r_c: Scalar
    T_c: Scalar
    m: int
    phi: tuple  # (φ_1, .., φ_m); all but the last are zero
    gamma1: Scalar

    def to_json(self) -> dict:
        return {
            "rc": scalar_str(self.r_c),
            "Tc": scalar_str(self.T_c),
            "m": self.m,
            "phi": [scalar_str(p) for p in self.phi],
            "gamma1": scalar_str(self.gamma1),
        }


@dataclass(frozen=True)
class SymmetricScaledOrder:
    """𝕍^{[k]} with its two-pole table:

        𝕍^{[k]} = (1/w_c) [ C^{[k]} + Σ_j A_j^{[k]} (λ-4r_c)/λ^j
                                     + B_j^{[k]} λ/(λ-4r_c)^j ].
    """

    k: int
    element: WElem
    C: DiffPoly
    A: tuple  # A_j^{[k]}, j = 1..
    B: tuple

    def a_pole(self, j: int) -> DiffPoly:
        if 1 <= j <= len(self.A):
            return self.A[j - 1]
        return DiffPoly.zero()

    def b_pole(self, j: int) -> DiffPoly:
        if 1 <= j <= len(self.B):
            return self.B[j - 1]
        return DiffPoly.zero()


@dataclass(frozen=True)
class SymmetricTwoCut:
    """Double-scaled series at a merging point, with its string ladder.

    ladder[k] is the ε̄^k relation ∮ V_λ 𝕍^{[k]} = δ_{k,0} T_c + δ_{k,2m} x
    as a constraint on the symbolic corrections 𝔞₁, 𝔞₂, …; unlike the
    one-cut case the sub-critical entries are not identically zero — they
    are the equations that eliminate the even corrections.
    """

    point: MergingPoint
    K: int
    orders: tuple
    ladder: tuple

    def order(self, k: int) -> SymmetricScaledOrder:
        return self.orders[checked_index(k, self.K, f"series truncated at ε̄^{self.K}")]

    def relation(self, k: int) -> XRelation:
        return self.ladder[checked_index(k, self.K, f"ladder truncated at ε̄^{self.K}")]


# -- the regular engine --------------------------------------------------------


class _TwoCutRegularEngine:
    """Order-by-order solve of the coupled pair over ℚ(a₀, b₀).

    Each even order is linear in (V_k, W_k, a_k, b_k): inverting the 2×2
    λ-matrix of the quadratic pair costs one exact division by λ·w, and the
    two string integrals then fix (a_k, b_k) through the same 2×2 matrix
    that is the Jacobian of the planar hodograph system — computed here
    from the curve and certified against the hodographs' actual partials.

    Coefficients live in ``mpolys._Loc`` over ℚ[a₀, b₀] localised at the
    factors (det, b₀-a₀); where both are certified prime, a product of
    numerators runs no trial division.  The derivation is certified against
    MRatFunc's quotient rule at construction: the defect and string residuals
    hold for whatever d/dT the ring implements.  ``_two_cut`` builds one
    engine per solve of orders 0..K and keeps only what it outputs.
    """

    def __init__(self, g: Potential):
        W_a, W_b = twocut_hodographs(g.gs)
        det_mp = W_a.diff(0) * W_a.diff(0) - W_a.diff(1) * W_b.diff(0)
        if det_mp.is_zero():
            raise SingularHodograph("endpoint Jacobian vanishes identically")
        certify(swap_vars(det_mp) == det_mp, "Jacobian determinant not symmetric")
        a_mp = MPoly.var(2, 0)
        b_mp = MPoly.var(2, 1)
        self.det_mp = det_mp
        fs = loc_factors(det_mp, b_mp - a_mp)
        poly = lambda p: _Loc(fs, p)
        a0 = self.a0 = poly(a_mp)
        b0 = self.b0 = poly(b_mp)
        d1 = (a0 + b0) * Fraction(-2)
        d0 = (b0 - a0) * (b0 - a0)
        self.v0 = WElem.from_poly(d1, d0, [a0 - b0, _F1], wpow=1)
        self.w0 = WElem.from_poly(d1, d0, [b0 - a0, _F1], wpow=1)
        self.vp = list(g.v_lambda().coeffs)

        # response kernels: the coefficients of (a_k, b_k) in (V_k, W_k)
        self.JA = WElem.from_poly(d1, d0, [_F0, (a0 + b0) * Fraction(-2), Fraction(2)], wpow=3)
        self.JBa = WElem.from_poly(d1, d0, [_F0, a0 * Fraction(4)], wpow=3)
        self.JBb = WElem.from_poly(d1, d0, [_F0, b0 * Fraction(4)], wpow=3)

        certify(self.v0.contour_pair(self.vp) == poly(W_a), "string equation for V₀ must give W_a")
        certify(self.w0.contour_pair(self.vp) == poly(W_b), "string equation for W₀ must give W_b")
        self.s1 = self.JA.contour_pair(self.vp)
        self.s2 = self.JBa.contour_pair(self.vp)
        self.t1 = self.JBb.contour_pair(self.vp)
        # the string responses must be the hodograph Jacobian, entry by entry
        certify(
            self.s1 == poly(W_a.diff(0)) and self.s1 == poly(W_b.diff(1)),
            "string response s1 differs from ∂W_a/∂a₀ or ∂W_b/∂b₀",
        )
        certify(self.s2 == poly(W_a.diff(1)), "string response s2 differs from ∂W_a/∂b₀")
        certify(self.t1 == poly(W_b.diff(0)), "string response t1 differs from ∂W_b/∂a₀")
        self.det = self.s1 * self.s1 - self.s2 * self.t1
        certify(self.det == poly(det_mp), "string response determinant differs from the Jacobian")
        # T-motion of the endpoints: d/dT of (W_a = T, W_b = T)
        da0 = (self.s1 - self.s2) / self.det
        db0 = (self.s1 - self.t1) / self.det
        # the slopes, and a probe with both factor exponents raised
        for c in (da0, db0, da0 * da0 / (b0 - a0)):
            for v in (0, 1):
                certify(
                    c.diff(v).to_ratfunc() == c.to_ratfunc().diff(v),
                    "two-cut derivation differs from the quotient rule",
                )
        dw2 = [(b0 - a0) * (db0 - da0) * Fraction(2), (da0 + db0) * Fraction(-2)]
        # the derivation closes over the slopes, not the engine, so that the
        # engine is freed when its solve returns
        self.lat = Lattice(d1, d0, _F1, lambda c: c.diff(0) * da0 + c.diff(1) * db0, dw2)
        self.slopes = (da0.to_ratfunc(), db0.to_ratfunc())

    def run(self, K: int) -> tuple[tuple, tuple, tuple, tuple]:
        """Solve orders 0..K; returns ((a₀..a_K), (b₀..b_K), (V₀..V_K),
        (W₀..W_K)) in _Loc.  Order k solves only the ε^{2k} coefficients of
        both defects on derivative towers kept for this run (``wring.Defect``),
        certifying ε^{2k-1} before and ε^{2k} after it."""
        a_list, b_list, v_list, w_list = [self.a0], [self.b0], [self.v0], [self.w0]
        # each function is the other's partner in the shifted slots
        DV = Defect(self.lat, v_list, w_list, a_list, 2)
        DW = Defect(self.lat, w_list, v_list, b_list, 2)
        mshift = [(self.a0 + self.b0) * Fraction(-1), _F1]  # λ - a₀ - b₀
        DV.certify(0, "V-defect")
        DW.certify(0, "W-defect")
        for k in range(1, K + 1):
            DV.certify(2 * k - 1, "odd V-defect order")
            DW.certify(2 * k - 1, "odd W-defect order")
            R1, R2 = DV.coefficient(2 * k), DW.coefficient(2 * k)
            ZV = R1.mul_poly(mshift) + R2.scale(self.a0 * Fraction(2))
            ZW = R2.mul_poly(mshift) + R1.scale(self.b0 * Fraction(2))
            baseV = _solvable(ZV, 1, f"the V-residual at order {k}").div_w().scale(Fraction(1, 2))
            baseW = _solvable(ZW, 1, f"the W-residual at order {k}").div_w().scale(Fraction(1, 2))
            P, Q = baseV.contour_pair(self.vp), baseW.contour_pair(self.vp)
            a_k = (self.s2 * Q - self.s1 * P) / self.det
            b_k = (self.t1 * P - self.s1 * Q) / self.det
            v_k = baseV + self.JA.scale(a_k) + self.JBa.scale(b_k)
            w_k = baseW + self.JBb.scale(a_k) + self.JA.scale(b_k)
            certify(not v_k.contour_pair(self.vp), f"string residual at V_{k}")
            certify(not w_k.contour_pair(self.vp), f"string residual at W_{k}")
            a_list.append(a_k)
            b_list.append(b_k)
            v_list.append(v_k)
            w_list.append(w_k)
            DV.certify(2 * k, "V-defect")
            DW.certify(2 * k, "W-defect")
        # a ↔ b symmetry of every order
        swap = lambda c: c if isinstance(c, (Fraction, int)) else c.swapped()
        for v_k, w_k in zip(v_list, w_list):
            certify(w_k == v_k.map_coeffs(swap), "V/W swap symmetry broken")
        for a_k, b_k in zip(a_list, b_list):
            certify(b_k == a_k.swapped(), "a/b swap symmetry broken")
        return tuple(a_list), tuple(b_list), tuple(v_list), tuple(w_list)


@lru_cache(maxsize=32)
def _two_cut(g: Potential, K: int) -> tuple[tuple, tuple, MPoly]:
    """The pairs (a_k, b_k), k ≤ K, reduced to MRatFunc, with the slopes and
    the Jacobian determinant, once per process for each (potential, K); the
    solve does not depend on T.

    Every call solves orders 0..K afresh, so its cost does not depend on what
    the process asked for before; only a repeat of the same K is served.  The
    engine and its derivative towers are dropped on return.
    """
    engine = _TwoCutRegularEngine(g)
    a_list, b_list, _, _ = engine.run(K)
    coeffs = tuple((a.to_ratfunc(), b.to_ratfunc()) for a, b in zip(a_list, b_list))
    return coeffs, engine.slopes, engine.det_mp


def expand_two_cut_regular(
    g: Potential, T, K: int, digits: int | None = None
) -> TwoCutExpansion:
    """Even-ε corrections (a_k, b_k), k ≤ K, on the two-cut branch at T.

    Raises SingularHodograph when the endpoint Jacobian degenerates at the
    phase point (that is a merging point, handled by the scaled series) and
    propagates NoTwoCutSolution from the phase solve.
    """
    if K < 0:
        raise ValueError("truncation order must be nonnegative")
    digits = working_digits(digits)
    try:
        a0, b0 = solve_two_cut(g, T, digits)
    except NoTwoCutSolution:
        # the boundary of the two-cut region is the merging temperature;
        # report it as the degeneracy it is rather than a missing solution
        for pt in find_merging(g, digits):
            with mpmath.workdps(digits + 5):
                T_x, T_c = lifted((T, pt.T_c), digits)
                merging = negligible(T_x - T_c, digits)
            if merging:
                raise SingularHodograph(
                    f"the cuts merge at T = {scalar_str(pt.T_c)}; "
                    "use the double-scaling path"
                ) from None
        raise
    coeffs, slopes, det_mp = _two_cut(g, K)
    with mpmath.workdps(digits):
        singular = negligible(det_mp.eval(lifted((a0, b0), digits)), digits)
    if singular:
        raise SingularHodograph(
            f"endpoint Jacobian vanishes at T = {scalar_str(T)}; "
            "the cuts are merging — use the double-scaling path"
        )
    return TwoCutExpansion(
        g=g,
        T=T,
        a0=a0,
        b0=b0,
        coeffs=coeffs,
        slopes=slopes,
        K=K,
    )


# -- merging points ----------------------------------------------------------------


def find_merging(g: Potential, digits: int | None = None) -> tuple[MergingPoint, ...]:
    """All admissible cut-merging points of the potential, graded by m.

    A candidate is a root r_c > 0 of Ψ(r) = ∮ V_λ/w_c (the stationarity of
    the merged endpoint functional in the vanishing cut) with temperature
    T_c = ∮ V_λ·λ/w_c = W(r_c) > 0.  Its order m is the first nonvanishing
    σ-moment φ_m; admissibility further needs γ₁ ≠ 0, without which the
    surviving endpoint degenerates too and the scaling ansatz below fails.

    Unlike the one-cut classification this is purely algebraic — no phase
    sampling — because the defining moments already are the derivatives of
    the endpoint functional.
    """
    digits = working_digits(digits)
    W = g.hodograph()
    psi = psi_poly(g.gs)
    found = []
    with mpmath.workdps(digits + 10):
        for root in real_roots(psi, digits):
            r_c = root.value
            approx = mpf_of(r_c, digits + 10)
            if not approx > 0:
                continue
            T_c = W(r_c if root.exact else approx)
            if not T_c > 0:
                continue
            # the moment arithmetic is exact either way: an inexact root is
            # replaced by its binary rational, off the true root by far less
            # than the classification tolerance
            rc_arg = as_fraction(r_c) if root.exact else rationalize(approx)
            phis = []
            m = 0
            for k in range(1, 2 * len(g.gs) + 2):
                ph = phi_moment(g.gs, k, rc_arg)
                if not root.exact:
                    ph = mpf_of(ph, digits)
                phis.append(ph)
                if not negligible(ph, digits):
                    m = k
                    break
            if m == 0:
                continue  # every tested moment vanished; not a finite-order point
            gamma1 = gamma_moment(g.gs, 1, rc_arg)
            if not root.exact:
                gamma1 = mpf_of(gamma1, digits)
            if negligible(gamma1, digits):
                continue
            found.append(
                MergingPoint(r_c=r_c, T_c=T_c, m=m, phi=tuple(phis), gamma1=gamma1)
            )
    found.sort(key=lambda p: mpf_of(p.r_c, digits))
    return tuple(found)


# -- the double-scaled symmetric series --------------------------------------------


def _principal_part(P: list, a, b, t: int, s: int, zero) -> list:
    """[c_1, .., c_t] with P(λ)/((λ-a)^t (λ-b)^s) = Σ_j c_j/(λ-a)^j + (regular at a).

    Shift P to ν = λ - a, then multiply by the binomial series
    (ν + a - b)^{-s} = Σ_n C(-s, n) (a-b)^{-s-n} ν^n; the coefficient of
    ν^{t-j} is c_j.  Needs s ≥ 1 and a - b a nonzero ``Fraction``; the
    entries come back in the ring of ``zero``.
    """
    inv = _F1 / (a - b)
    series = [inv**s]
    for n in range(1, t):
        series.append(series[-1] * inv * Fraction(-(s + n - 1), n))
    S = _pmul(_pshift(P, a)[:t], series)
    S += [_F0] * (t - len(S))
    return [zero + S[t - j] for j in range(1, t + 1)]


def _two_pole_basis(elem: WElem, four_rc: Fraction, zero) -> tuple:
    """Split w_c·𝕍^{[k]} into (C, [A_j], [B_j]) over the two branch points.

    X = w_c·element has only even w-powers, so X = big(λ)/(λ^M (λ-4r_c)^M);
    deg big ≤ 2M is certified, which makes X bounded at infinity and hence
    X = C + Σ_j A_j (λ-4r_c)/λ^j + Σ_j B_j λ/(λ-4r_c)^j exactly.  A_j is the
    λ^{-j} coefficient of X/(λ-4r_c) at 0, B_j the (λ-4r_c)^{-j}
    coefficient of X/λ at 4r_c, and C = big[2M] - A_1 - B_1 is X at
    infinity minus the basis functions' limits.
    """
    big, M = elem.mul_w().even_numerator()
    certify(len(big) <= 2 * M + 1, "w_c·𝕍 grows at infinity")
    A = _principal_part(big, _F0, four_rc, M, M + 1, zero)
    B = _principal_part(big, four_rc, _F0, M, M + 1, zero)
    C = zero + (big[2 * M] if len(big) > 2 * M else _F0)
    if M:
        C = C - A[0] - B[0]
    while A and not A[-1]:
        A.pop()
    while B and not B[-1]:
        B.pop()
    return C, A, B


@lru_cache(maxsize=32)
def _symmetric(g: Potential, point: MergingPoint, K: int) -> SymmetricTwoCut:
    """``symmetric_scaled_series`` once per process for each (potential,
    merging point, K).

    The ε̄-expansion of the single merged equation, with DiffPoly
    coefficients over ℚ.  The pair of equations collapses because
    𝔟(ε̄) = 𝔞(-ε̄) and 𝕎 = 𝕍(-ε̄): the second equation is the ε̄ → -ε̄ image
    of the first, so one defect with parity-flipped shifted slots carries all
    the content.  Order k solves only the ε̄^k coefficient on a
    ``wring.Defect`` local to this call (partner 𝕍(-ε̄)) and certifies it
    right after, on its final value; the string ladder and the two-pole
    tables are then read off 𝕍^{[0]}..𝕍^{[K]}.  Every call solves orders
    0..K afresh, so its cost does not depend on what the process asked for
    before; only a repeat of the same K is served.
    """
    if not is_exact(point.r_c):
        raise ValueError("double-scaled series needs an exact merging point")
    rc, Tc = as_fraction(point.r_c), as_fraction(point.T_c)
    lat, v0 = scaled_lattice(rc)
    vp = list(g.v_lambda().coeffs)
    # the merged strings: ∮V_λ·λ/w_c = T_c (certified by ``string_ladder``
    # at order 0) and ∮V_λ/w_c = 0
    one_over_w = WElem.from_poly(lat.d1, lat.d0, [DiffPoly.const(1)], wpow=1)
    certify(
        not DiffPoly.zero() + one_over_w.contour_pair(vp),
        "merged string ∮V_λ/w_c must vanish",
    )

    a_list = [DiffPoly.const(rc)] + [DiffPoly.var(f"a{k}") for k in range(1, K + 1)]
    v_list, flipped = [v0], [v0]
    F = Defect(lat, v_list, flipped, a_list, 1)
    F.certify(0, "merged defect")
    for k in range(1, K + 1):
        R = F.coefficient(k)
        if k % 2 == 0:
            # unknown enters as -2w·𝕍^[k]
            v_k = R.div_w().scale(Fraction(1, 2))
        else:
            # unknown enters as -2(λ²/w)·𝕍^[k]
            v_k = _solvable(R.mul_w(), 2, f"the merged residual at order {k}")
            v_k = v_k.scale(Fraction(1, 2))
        v_list.append(v_k)
        flipped.append(-v_k if k % 2 else v_k)
        F.certify(k, "merged defect")
    ladder = string_ladder(v_list, vp, Tc, 2 * point.m)

    four_rc = 4 * rc
    orders = [SymmetricScaledOrder(k=0, element=v0, C=DiffPoly.zero(), A=(), B=())]
    phis = [phi_moment(g.gs, j, rc) for j in range(1, K // 2 + 1)]
    gammas = [gamma_moment(g.gs, j, rc) for j in range(1, K // 2 + 1)]
    for k in range(1, K + 1):
        C, A, B = _two_pole_basis(v_list[k], four_rc, DiffPoly.zero())
        certify(len(A) <= k // 2 and len(B) <= k // 2, "pole depth exceeded k/2")
        # the ladder relation must equal its moment form (C drops out since
        # ∮V_λ/w_c = 0 at a merging point)
        moment = DiffPoly.zero()
        for j, Aj in enumerate(A, start=1):
            moment = moment + Aj * phis[j - 1]
        for j, Bj in enumerate(B, start=1):
            moment = moment + Bj * gammas[j - 1]
        certify(ladder[k].p == moment, f"ladder/moment mismatch at order {k}")
        orders.append(SymmetricScaledOrder(k=k, element=v_list[k], C=C, A=tuple(A), B=tuple(B)))
    return SymmetricTwoCut(point=point, K=K, orders=tuple(orders), ladder=tuple(ladder))


def symmetric_scaled_series(g: Potential, point: MergingPoint, K: int) -> SymmetricTwoCut:
    """Double-scaled series at a merging point, to order ε̄^K (K ≥ 2m+1).

    Orders carry their two-pole tables; the k-th ladder entry is certified
    against the moment form Σ_j (φ_j A_j^{[k]} + γ_j B_j^{[k]}) before being
    returned, which ties the contour integrals to the pole tables and to
    the classification data of the merging point.
    """
    if not isinstance(point, MergingPoint):
        raise TypeError(
            f"symmetric_scaled_series needs a MergingPoint from find_merging, not a "
            f"{type(point).__name__}; a one-cut critical point goes to onecut.scaled_series"
        )
    if K < 2 * point.m + 1:
        raise ValueError("need K ≥ 2m+1 to reach the closing pair of relations")
    return _symmetric(g, point, K)
