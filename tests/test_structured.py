"""Tests for the spectral-curve residue calculus and hodograph functionals.

Frozen oracle values (derived by hand from the branch expansions; see the
matching comments):

  * quartic couplings (g2, g4): W(r) = 2 g2 r + 12 g4 r²,
    Ψ(r) = g2 + 4 g4 r, φ1(r) = g2 - 4 g4 r, h(λ) = 4 g4 λ + 2 g2 + 8 g4 r0.
  * sextic adds: W += 60 g6 r³, Ψ += 18 g6 r², φ1 -= 6 g6 r²,
    φ2 = 2 g4 - 6 g6 r, γ1 = g2 + 12 g4 r + 90 g6 r².
  * cubic-order one-cut model (90, -15, 1): W = 180 r - 180 r² + 60 r³,
    W(1) = 60 and W' = 180 (r-1)².
  * merging sextic (-6, -3, 1): Ψ(1) = 0, φ1(1) = 0, φ2(1) = -12,
    γ1(1) = 48 — an order-2 merged critical point.
  * quartic two-cut at g2=-2, g4=1, T=3/4: endpoints a0=3/4, b0=1/4
    (discriminant g2²-4Tg4 = 1 is a perfect square, so the point is exact).
"""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen.mpolys import MPoly
from largen.polys import Poly
from largen.roots import real_roots
from largen.scalars import mpf_of
from largen.structured import (
    branch_coeff,
    branch_curve,
    branch_poly_part,
    branch_residue,
    branch_resultant,
    c_weight,
    double_factorial_odd,
    gamma_moment,
    gen_binom,
    hodograph_poly,
    phi_moment,
    psi_poly,
    twocut_hodographs,
    v_poly,
    v_prime,
)
from largen.wring import _pmul

QUARTIC = [F(-2), F(1)]
BMP = [F(90), F(-15), F(1)]
MERGE2 = [F(-6), F(-3), F(1)]
NO_TWO_CUT = [F(42), F(-11), F(1)]
OCTIC = [F(-6), F(-1), F(1), F(1)]
ENDPOINT_CASES = pytest.mark.parametrize(
    "gs", [NO_TWO_CUT, MERGE2, BMP, OCTIC],
    ids=["sextic:42,-11,1", "sextic:-6,-3,1", "bmp", "octic:-6,-1,1,1"],
)


def test_double_factorial_odd():
    assert [double_factorial_odd(j) for j in range(5)] == [1, 1, 3, 15, 105]


def test_gen_binom_half_integer():
    a = F(-1, 2)
    assert [gen_binom(a, i) for i in range(4)] == [1, F(-1, 2), F(3, 8), F(-5, 16)]
    assert gen_binom(F(3), 2) == 3  # agrees with ordinary binomials


def test_branch_expansion_of_inverse_sqrt():
    # 1/w with w² = λ(λ-4r):  λ^{-1}(1 + 2r/λ + 6r²/λ² + 20r³/λ³ + ...)
    r = F(1)
    got = [branch_coeff([F(1)], -4 * r, F(0), -1, 0, -k) for k in range(1, 5)]
    assert got == [1, 2, 6, 20]  # central binomial coefficients


def test_branch_positive_power_matches_square():
    # w·w should reproduce λ² + d1 λ + d0 exactly, all other coeffs zero
    d1, d0 = F(-7), F(3)
    coeffs = {p: branch_coeff([F(1)], d1, d0, 1, 0, p) for p in range(-6, 3)}
    prod = {}
    for p1, c1 in coeffs.items():
        for p2, c2 in coeffs.items():
            prod[p1 + p2] = prod.get(p1 + p2, F(0)) + c1 * c2
    # truncation only pollutes far-negative powers
    assert prod[2] == 1 and prod[1] == d1 and prod[0] == d0
    assert prod[-1] == 0 and prod[-2] == 0


def test_v_poly_and_prime():
    assert v_poly(QUARTIC) == Poly([0, -2, 1])
    assert v_prime(QUARTIC) == Poly([-2, 2])


def test_hodograph_quartic_and_bmp():
    g2, g4 = F(5), F(7)
    assert hodograph_poly([g2, g4]) == Poly([0, 2 * g2, 12 * g4])
    w = hodograph_poly(BMP)
    assert w == Poly([0, 180, -180, 60])
    assert w(F(1)) == 60
    assert w.derivative() == 180 * Poly([1, -1]) ** 2


def test_psi_poly():
    assert psi_poly(QUARTIC) == Poly([-2, 4])
    assert psi_poly(MERGE2)(F(1)) == 0


def test_c_weights_scale_derivatives():
    w = hodograph_poly(BMP)
    # c_j = W^{(j)} / (2^j (2j-1)!!); at the critical point r=1 of BMP:
    # c1 = c2 = 0 is false here (order 3 means W', W'' vanish), c3 = 3
    assert c_weight(w, 1)(F(1)) == 0
    assert c_weight(w, 2)(F(1)) == 0
    assert c_weight(w, 3)(F(1)) == 3


def test_phi_moments_quartic_and_sextic():
    g2, g4 = QUARTIC
    rc = -g2 / (4 * g4)
    assert phi_moment(QUARTIC, 1, rc) == 2 * g2
    assert phi_moment(MERGE2, 1, F(1)) == 0
    assert phi_moment(MERGE2, 2, F(1)) == -12


def test_gamma_moment_sextic():
    assert gamma_moment(MERGE2, 1, F(1)) == 48
    # generic formula γ1 = g2 + 12 g4 r + 90 g6 r² at another point
    r = F(1, 3)
    assert gamma_moment(MERGE2, 1, r) == F(-6) + 12 * F(-3) * r + 90 * r**2


def test_twocut_hodograph_exact_quartic_point():
    wa, wb = twocut_hodographs(QUARTIC)
    pt = (F(3, 4), F(1, 4))
    assert wa.eval(pt) == F(3, 4)
    assert wb.eval(pt) == F(3, 4)


@given(st.fractions(min_value=-3, max_value=3, max_denominator=8))
@settings(max_examples=30)
def test_twocut_reduces_to_onecut_on_diagonal(r):
    wa, wb = twocut_hodographs(MERGE2)
    w = hodograph_poly(MERGE2)
    assert wa.eval((r, r)) == w(r)
    assert wb.eval((r, r)) == w(r)


A0, B0 = MPoly.var(2, 0), MPoly.var(2, 1)


@pytest.mark.parametrize("gs,want", [
    (QUARTIC, A0 + B0 - 1),
    (MERGE2, A0 * A0 + 4 * A0 * B0 + B0 * B0 - 2 * A0 - 2 * B0 - 2),
], ids=["quartic:-2,1", "sextic:-6,-3,1"])
def test_branch_curve_closed_forms(gs, want):
    wa, wb = twocut_hodographs(gs)
    L = branch_curve(wa, wb)
    c = L.terms[max(L.terms)]
    assert L == want * c
    assert wa - wb == (A0 - B0) * L


def test_branch_curve_of_an_octic_is_a_swap_symmetric_cubic():
    wa, wb = twocut_hodographs(OCTIC)
    L = branch_curve(wa, wb)
    assert L.total_degree() == 3
    assert L == MPoly(2, {(e[1], e[0]): c for e, c in L.terms.items()})
    assert wa - wb == (A0 - B0) * L


@ENDPOINT_CASES
def test_branch_resultant_vanishes_at_both_endpoints(gs):
    # each real point (a₀, b₀) of L = 0 solves W_a = T = W_b at T = W_a
    # there, so R(·, T) vanishes at b₀ and, by the a₀ ↔ b₀ mirror, at a₀
    wa, wb = twocut_hodographs(gs)
    L = branch_curve(wa, wb)
    R = branch_resultant(L, wa)
    points = []
    for b0 in (F(1, 3), F(3), F(-3)):
        in_a = [F(0)] * (L.total_degree() + 1)
        for (i, j), c in L.terms.items():
            in_a[i] += c * b0**j
        points += [(r.value, b0) for r in real_roots(Poly(in_a), 40)]
    assert points
    scale = sum(abs(c) for c in R.terms.values())
    with mpmath.workdps(40):
        for a0, b0 in points:
            a0, b0 = mpf_of(a0, 40), mpf_of(b0, 40)
            T = wa.eval((a0, b0))
            for x in (a0, b0):
                size = scale * (1 + abs(x) + abs(T)) ** R.total_degree()
                assert abs(R.eval((x, T))) < mpmath.mpf(10) ** -30 * size


def _endpoint_functional(gs) -> MPoly:
    """∮ V'(λ)·w over MPoly in the λ-cut chart (σ, τ), w² = (λ-σ)(λ-τ)."""
    s, t = MPoly.var(2, 0), MPoly.var(2, 1)
    vp = [MPoly.const(2, c) for c in v_prime(gs).coeffs]
    return branch_residue(vp, -(s + t), s * t, 1)


def test_endpoint_functional_sigma_derivatives_give_phi():
    # ∂^{k+1}F/∂σ^{k+1} at (0, 4 r_c) equals -((2k-1)!!/2^{k+1}) φ_k
    cases = [(QUARTIC, F(1, 2)), (MERGE2, F(1))]
    for gs, rc in cases:
        f = _endpoint_functional(gs)
        for k in (1, 2):
            d = f
            for _ in range(k + 1):
                d = d.diff(0)
            got = d.eval((F(0), 4 * rc))
            want = -F(double_factorial_odd(k), 2 ** (k + 1)) * phi_moment(gs, k, rc)
            assert got == want, (gs, k)


def _endpoint_residues(gs) -> tuple:
    """(e₀, e₁) = (∮ V'/w, ∮ λ·V'/w) over MPoly in the λ-cut chart (σ, τ),
    w² = (λ-σ)(λ-τ): the residue calculus ``_endpoint_functional`` runs on."""
    s, t = MPoly.var(2, 0), MPoly.var(2, 1)
    vp = [MPoly.const(2, c) for c in v_prime(gs).coeffs]
    return tuple(branch_residue(vp, -(s + t), s * t, -1, shift=k) for k in (0, 1))


def _mirror_partial(gs, shift: int, var: int) -> MPoly:
    """½∮ V'·λ^shift·(λ - other endpoint)/w³ over MPoly: the partial of
    e_shift in ``var`` (0 for σ, 1 for τ) read off ∂(1/w) = (λ - other)/(2w³)."""
    s, t = MPoly.var(2, 0), MPoly.var(2, 1)
    vp = [MPoly.const(2, c) for c in v_prime(gs).coeffs]
    other = t if var == 0 else s
    return branch_residue(_pmul(vp, [-other, 1]), -(s + t), s * t, -3, shift=shift) * F(1, 2)


@ENDPOINT_CASES
def test_endpoint_residue_partials_are_the_mirror_residues(gs):
    for shift, e in enumerate(_endpoint_residues(gs)):
        for var in (0, 1):
            assert e.diff(var) == _mirror_partial(gs, shift, var), (shift, var)


@ENDPOINT_CASES
def test_endpoint_residues_evaluate_to_branch_residues(gs):
    vp = list(v_prime(gs).coeffs)
    e0, e1 = _endpoint_residues(gs)
    for sigma, tau in ((F(1, 3), F(2)), (F(-5, 7), F(9, 4)), (F(3), F(11, 2))):
        d1, d0 = -(sigma + tau), sigma * tau
        assert e0.eval((sigma, tau)) == branch_residue(vp, d1, d0, -1)
        assert e1.eval((sigma, tau)) == branch_residue(vp, d1, d0, -1, shift=1)


def test_branch_poly_part_quartic_h():
    # polynomial part of 2V'·λ/w0, w0² = λ(λ - 4r0): 2g2 + 8g4·r0 + 4g4·λ
    g2, g4, r0 = F(-2), F(1), F(1, 5)
    num = 2 * v_prime([g2, g4]) * Poly.x()
    cs = branch_poly_part(list(num.coeffs), -4 * r0, F(0), -1)
    assert cs == [2 * g2 + 8 * g4 * r0, 4 * g4]


def test_branch_residue_rejects_even_power():
    with pytest.raises(ValueError):
        branch_residue([F(1)], F(0), F(0), 2)


def test_branch_residue_ring_zero_for_empty():
    z = branch_residue([MPoly.const(2, 1)], MPoly.const(2, 0), MPoly.const(2, 0), -1, shift=-3)
    assert isinstance(z, MPoly) and z.is_zero()
