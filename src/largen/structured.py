"""Residue calculus on the spectral curve, and the functionals built from it.

Everything here revolves around one primitive: extracting λ-expansion
coefficients at infinity of expressions

    num(λ) · λ^shift · w^p,        w = (λ² + d1·λ + d0)^{1/2},  p odd,

on the branch with w ~ +λ at infinity.  The coefficient ring is generic —
Fractions, univariate rational functions, or sparse multivariate
polynomials all work, which lets the same code produce numbers and
hodograph polynomials.

Couplings convention: a potential of degree 2p in the matrix variable is
given by ``gs = (g2, g4, ..., g_{2p})``; in the squared variable it reads
V(λ) = Σ_{k>=1} gs[k-1] λ^k.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .mpolys import MPoly, bareiss_det, greedy_div
from .polys import Poly

_ZERO = Fraction(0)


def double_factorial_odd(j: int) -> int:
    """(2j - 1)!! with the empty-product convention for j = 0."""
    out = 1
    for i in range(1, j + 1):
        out *= 2 * i - 1
    return out


def gen_binom(alpha: Fraction, i: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, i)."""
    num, den = Fraction(1), 1
    for t in range(i):
        num *= alpha - t
        den *= t + 1
    return num / den


def _pow_cached(base, n: int, cache: dict):
    if n not in cache:
        cache[n] = base ** n
    return cache[n]


def branch_coeff(num_coeffs: Sequence, d1, d0, p: int, shift: int, power: int):
    """Coefficient of λ**power in num(λ)·λ^shift·w^p at infinity.

    ``num_coeffs[m]`` is the ring coefficient of λ^m.  ``p`` must be odd
    (either sign); the expansion uses (1+u)^{p/2} with u = d1/λ + d0/λ².
    """
    if p % 2 == 0:
        raise ValueError("w exponent must be odd")
    alpha = Fraction(p, 2)
    d1_pows: dict = {}
    d0_pows: dict = {}
    acc = None
    witness = None
    for m, cm in enumerate(num_coeffs):
        if not cm:
            continue
        witness = cm
        k = m + shift + p - power  # need coeff of λ^{-k} in (1+u)^{p/2}
        if k < 0:
            continue
        for i in range((k + 1) // 2, k + 1):
            t = k - i
            if t > i:
                continue
            scalar = gen_binom(alpha, i) * comb(i, t)
            if not scalar:
                continue
            term = cm * scalar
            if i - t:
                term = term * _pow_cached(d1, i - t, d1_pows)
            if t:
                term = term * _pow_cached(d0, t, d0_pows)
            acc = term if acc is None else acc + term
    if acc is None:
        return witness * _ZERO if witness is not None else _ZERO
    return acc


def branch_residue(num_coeffs: Sequence, d1, d0, p: int, shift: int = 0):
    """Residue at infinity: the coefficient of λ^{-1}."""
    return branch_coeff(num_coeffs, d1, d0, p, shift, -1)


def branch_poly_part(num_coeffs: Sequence, d1, d0, p: int) -> list:
    """Coefficients [λ^0, λ^1, ...] of the polynomial part at infinity."""
    top = len(num_coeffs) - 1 + p
    return [branch_coeff(num_coeffs, d1, d0, p, 0, j) for j in range(top + 1)]


# -- potential helpers -------------------------------------------------


def v_poly(gs: Sequence) -> Poly:
    """V(λ) = Σ g_{2k} λ^k as a polynomial in λ."""
    return Poly([_ZERO] + [Fraction(g) for g in gs])


def v_prime(gs: Sequence) -> Poly:
    return v_poly(gs).derivative()


# -- one-cut functionals ------------------------------------------------


def hodograph_poly(gs: Sequence) -> Poly:
    """W(r) = Σ_k C(2k,k)·k·g_{2k}·r^k; the planar string equation is W(r0)=T."""
    cs = [_ZERO] * (len(gs) + 1)
    for k, g in enumerate(gs, start=1):
        cs[k] = Fraction(g) * comb(2 * k, k) * k
    return Poly(cs)


def psi_poly(gs: Sequence) -> Poly:
    """Ψ(r) = Σ_k k·g_{2k}·C(2k-2, k-1)·r^{k-1}; Ψ(r_c)=0 marks cut merging."""
    cs = [_ZERO] * len(gs)
    for k, g in enumerate(gs, start=1):
        cs[k - 1] = Fraction(g) * k * comb(2 * k - 2, k - 1)
    return Poly(cs)


def c_weight(w_poly: Poly, j: int):
    """c_j as a polynomial in r: W^{(j)}(r) / (2^j (2j-1)!!)."""
    scale = Fraction(1, 2**j * double_factorial_odd(j))
    return w_poly.derivative(j) * scale


def phi_moment(gs: Sequence, k: int, rc):
    """φ_k = ∮ V'(λ)(λ-4r_c) / (λ^k w_c),  w_c² = λ(λ-4r_c).

    Vanishing of φ_1..φ_{m-1} with φ_m ≠ 0 sets the order of a merged
    (symmetric two-cut) critical point.
    """
    num = v_prime(gs) * Poly([-4 * rc, 1])
    return branch_residue(list(num.coeffs), -4 * rc, _ZERO, -1, shift=-k)


def gamma_moment(gs: Sequence, j: int, rc):
    """γ_j = ∮ V'(λ)·λ^{j+1} / w_c^{2j+1},  w_c² = λ(λ-4r_c)."""
    num = v_prime(gs)
    return branch_residue(list(num.coeffs), -4 * rc, _ZERO, -(2 * j + 1), shift=j + 1)


# -- two-cut functionals ------------------------------------------------
#
# Cut endpoint variables: var 0 is the odd-index limit a0, var 1 the
# even-index limit b0.  The curve is w² = λ² - 2(a0+b0)λ + (b0-a0)².


def _endpoint_curve():
    a = MPoly.var(2, 0)
    b = MPoly.var(2, 1)
    d1 = -2 * (a + b)
    d0 = (b - a) * (b - a)
    return a, b, d1, d0


def twocut_hodographs(gs: Sequence) -> tuple[MPoly, MPoly]:
    """The pair of planar string equations for a two-cut solution.

    Returns (W_a, W_b), polynomials in (a0, b0); a two-cut solution at
    temperature T satisfies W_a = T and W_b = T.
    """
    a, b, d1, d0 = _endpoint_curve()
    vp = [MPoly.const(2, c) for c in v_prime(gs).coeffs]
    # ∮ V'(λ)(λ + a0 - b0)/w  and the same with a0, b0 swapped
    shiftpart = branch_residue(vp, d1, d0, -1, shift=1)
    flatpart = branch_residue(vp, d1, d0, -1, shift=0)
    return shiftpart + (a - b) * flatpart, shiftpart + (b - a) * flatpart


def branch_curve(W_a: MPoly, W_b: MPoly) -> MPoly:
    """L(a0, b0) = (W_a - W_b)/(a0 - b0), an exact division.  W_a = T = W_b
    forces W_a - W_b = 0 at every T, so the two-cut branch lies on the T-free
    curve L = 0, of degree p - 1 for a potential of degree 2p."""
    a, b, _, _ = _endpoint_curve()
    return greedy_div(W_a - W_b, a - b)


def _in_a(p: MPoly) -> list:
    """[c_n, ..., c_0] with p = Σ c_i·a0^i, the c_i in (b0, T)."""
    cs: dict = {}
    for (ea, eb), c in p.terms.items():
        cs.setdefault(ea, {})[(eb, 0)] = c
    return [MPoly(2, cs.get(i)) for i in range(max(cs), -1, -1)]


def branch_resultant(L: MPoly, W_a: MPoly) -> MPoly:
    """R(b0, T) = Res_{a0}(L, W_a - T), the Sylvester determinant over
    ℚ[b0, T] taken fraction-free.  A solution (a0, b0) of W_a = T = W_b has
    R(b0, T) = 0, and so does its mirror (b0, a0), since L is swap-symmetric
    and W_a = W_b on L = 0: the real roots of R(·, T) hold both endpoints of
    every real solution."""
    f, g, zero = _in_a(L), _in_a(W_a), MPoly(2)
    g[-1] = g[-1] - MPoly.var(2, 1)
    m, n = len(f) - 1, len(g) - 1
    rows = [[zero] * i + f + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + g + [zero] * (m - 1 - i) for i in range(m)]
    return bareiss_det(rows)

