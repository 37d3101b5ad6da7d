"""Tests for the exact univariate and multivariate polynomial layers."""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen.mpolys import MOD_P, MPoly, MRatFunc, greedy_div, mod_image, swap_vars
from largen.polys import Poly, RationalFunc, poly_from_pairs

small_fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
small_polys = st.lists(small_fracs, min_size=0, max_size=6).map(Poly)


def test_poly_construction_strips_leading_zeros():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert Poly([0, 0]).is_zero()
    assert Poly.zero().degree == -1


def test_poly_arithmetic_basics():
    x = Poly.x()
    p = (x - 1) * (x + 1)
    assert p == x * x - 1
    assert (p + 1)[2] == 1
    assert (3 * x).coeffs == (Fraction(0), Fraction(3))
    assert x**3 == Poly([0, 0, 0, 1])
    assert (x - 2) ** 2 == Poly([4, -4, 1])


def test_poly_divmod_exact():
    x = Poly.x()
    num = x**4 - 1
    q, r = num.divmod(x**2 + 1)
    assert q == x**2 - 1
    assert r.is_zero()
    q, r = (x**3 + 2 * x + 5).divmod(x - 1)
    assert q * (x - 1) + r == x**3 + 2 * x + 5
    assert r.degree <= 0
    with pytest.raises(ZeroDivisionError):
        num.divmod(Poly.zero())


def test_poly_exact_div_raises_on_remainder():
    x = Poly.x()
    with pytest.raises(ValueError):
        (x**2 + 1).exact_div(x - 1)


def test_poly_gcd_is_monic():
    x = Poly.x()
    a = 2 * (x - 1) * (x + 3) ** 2
    b = 4 * (x + 3) * (x - 5)
    g = a.gcd(b)
    assert g == x + 3


def test_poly_derivative_and_shift():
    x = Poly.x()
    p = x**3 - 6 * x
    assert p.derivative() == 3 * x**2 - 6
    assert p.derivative(2) == 6 * x
    assert p.derivative(5).is_zero()
    # (x+2)^3 - 6(x+2) expanded
    s = p.shift(2)
    assert s == x**3 + 6 * x**2 + 6 * x - 4


def test_poly_rebase():
    x = Poly.x()
    base = x - 4  # stand-in for a localized denominator
    p = x**3 + 1
    rems = p.rebase(base)
    recon = Poly.zero()
    for i, r in enumerate(rems):
        assert r.degree < base.degree
        recon = recon + r * base**i
    assert recon == p


def test_poly_eval_exact_and_float():
    p = Poly([1, 0, 1])  # 1 + x^2
    assert p(Fraction(1, 2)) == Fraction(5, 4)
    with mpmath.workdps(30):
        v = p(mpmath.mpf(2))
        assert mpmath.almosteq(v, 5)


def test_poly_render():
    x = Poly.x()
    assert (x**2 - x - 1).render() == "x^2 - x - 1"
    assert Poly.zero().render() == "0"
    assert (Fraction(-1, 2) * x).render("t") == "-1/2*t"


def test_poly_from_pairs_merges_duplicates():
    p = poly_from_pairs([(2, 1), (0, 3), (2, 2)])
    assert p == Poly([3, 0, 3])
    assert poly_from_pairs([]).is_zero()


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + Poly.zero() == a
    assert a * Poly.one() == a


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_poly_divmod_identity(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(small_polys, small_fracs)
@settings(max_examples=40)
def test_poly_shift_matches_eval(p, a):
    x0 = Fraction(3, 7)
    assert p.shift(a)(x0) == p(x0 + a)


# -- RationalFunc ------------------------------------------------------


def test_ratfunc_reduces_and_normalizes():
    x = Poly.x()
    f = RationalFunc((x**2 - 1) * 2, (x - 1) * 4)
    assert f.num == Fraction(1, 2) * (x + 1)
    assert f.den == Poly.one()
    g = RationalFunc(x, 2 * x**2)
    assert g.den == x  # monic after reduction
    assert g.num == Poly.const(Fraction(1, 2))


def test_ratfunc_arithmetic_and_equality():
    x = Poly.x()
    one_over = RationalFunc(Poly.one(), x)
    assert one_over + one_over == RationalFunc(Poly.const(2), x)
    assert one_over * x == RationalFunc(Poly.one())
    assert (one_over - one_over).is_zero()
    assert RationalFunc(x**2 - 1, x - 1) == RationalFunc(x + 1)
    with pytest.raises(ZeroDivisionError):
        one_over / RationalFunc(Poly.zero())


def test_ratfunc_derivative_quotient_rule():
    x = Poly.x()
    f = RationalFunc(Poly.one(), x)  # 1/x -> -1/x^2
    assert f.derivative() == RationalFunc(Poly.const(-1), x**2)
    g = RationalFunc(x**2, x + 1)
    # (x^2/(x+1))' = (x^2 + 2x)/(x+1)^2
    assert g.derivative() == RationalFunc(x**2 + 2 * x, (x + 1) ** 2)


def test_ratfunc_eval_and_pole():
    x = Poly.x()
    f = RationalFunc(x + 1, x - 2)
    assert f(Fraction(3)) == 4
    with pytest.raises(ZeroDivisionError):
        f(Fraction(2))


@given(small_polys, small_polys, small_polys, small_polys)
@settings(max_examples=40)
def test_ratfunc_field_axioms(an, ad, bn, bd):
    if ad.is_zero() or bd.is_zero():
        return
    a = RationalFunc(an, ad)
    b = RationalFunc(bn, bd)
    assert a + b == b + a
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


# -- MPoly / MRatFunc --------------------------------------------------


def test_mpoly_basics():
    a = MPoly.var(2, 0)
    b = MPoly.var(2, 1)
    p = (a + b) ** 2
    assert p == a * a + 2 * a * b + b * b
    assert p.diff(0) == 2 * a + 2 * b
    assert p.eval((Fraction(1), Fraction(2))) == 9
    assert p.total_degree() == 2
    assert MPoly.const(2, 0).is_zero()


def test_mpoly_arity_mismatch():
    with pytest.raises(ValueError):
        MPoly.var(2, 0) + MPoly.var(3, 0)


def test_mpoly_render_sorted():
    a, b = MPoly.var(2, 0), MPoly.var(2, 1)
    s = (a * a - b + 1).render(["a", "b"])
    assert s == "a^2 - b + 1"


def test_mratfunc_cross_multiplied_equality():
    a, b = MPoly.var(2, 0), MPoly.var(2, 1)
    # (a^2-b^2)/(a-b) == a+b without any gcd computation
    f = MRatFunc(a * a - b * b, a - b)
    g = MRatFunc(a + b)
    assert f == g
    assert f - g == MRatFunc.const(2, 0)
    assert (f * (a - b)) == MRatFunc(a * a - b * b)


def test_mratfunc_diff_and_eval():
    a, b = MPoly.var(2, 0), MPoly.var(2, 1)
    f = MRatFunc(a, b)  # d/db (a/b) = -a/b^2
    assert f.diff(1) == MRatFunc(-a, b * b)
    assert f.eval((Fraction(3), Fraction(4))) == Fraction(3, 4)
    with pytest.raises(ZeroDivisionError):
        f.eval((Fraction(1), Fraction(0)))


# MPoly arithmetic builds its results without re-validating them; they must be
# exactly what the validating constructor makes of the same raw table, down
# to the insertion order that MPoly.eval sums in, and keep the integer table
# canonical: den > 0, gcd(den, numerators) = 1, no zero numerator.

_mpoly_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=8,
)


def _same(got: MPoly, want: MPoly):
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction and c for c in got.terms.values())
    for p in (got, want):
        assert p.den > 0 and gcd(p.den, *p.nums.values()) == 1
        assert all(type(n) is int and n for n in p.nums.values())
    assert (got.den, got.nums) == (want.den, want.nums)


def _divide_over_q(p: MPoly, d: MPoly):
    """p/d for d | p, by greedy lex division term by term over Fraction: the
    quotient's terms in the order found."""
    rest = d.terms
    lead = max(rest)
    lc = rest.pop(lead)
    rem, out = p.terms, {}
    while rem:
        e = max(rem)
        q = (e[0] - lead[0], e[1] - lead[1])
        c = out[q] = rem.pop(e) / lc
        for de, dc in rest.items():
            ke = (q[0] + de[0], q[1] + de[1])
            rem[ke] = rem.get(ke, Fraction(0)) - c * dc
            if not rem[ke]:
                del rem[ke]
    return out


def _image_over_q(p: MPoly, b):
    """φ(den·p) mod P from the Fraction terms, x₁ ↦ b: lowest x₀-power first."""
    out = [0] * (max((e[0] for e in p.nums), default=-1) + 1)
    for (ea, eb), c in p.terms.items():
        out[ea] = (out[ea] + int(c * p.den) * pow(b, eb, MOD_P)) % MOD_P
    return out


@given(_mpoly_terms, _mpoly_terms, st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))))
@settings(max_examples=60, deadline=None)
def test_mpoly_ops_match_validating_constructor(t1, t2, cancel):
    p = MPoly(2, t1)
    # some terms of q cancel terms of p exactly
    q = MPoly(2, {**t2, **{e: -c for e, c in p.terms.items() if e in cancel}})
    raw = dict(p.terms)
    for e, c in q.terms.items():
        raw[e] = raw.get(e, Fraction(0)) + c
    _same(p + q, MPoly(2, raw))
    _same(-p, MPoly(2, {e: -c for e, c in p.terms.items()}))
    raw = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            raw[e] = raw.get(e, Fraction(0)) + c1 * c2
    _same(p * q, MPoly(2, raw))
    for i in (0, 1):
        raw = {}
        for e, c in p.terms.items():
            if e[i]:
                e2 = (e[0] - 1, e[1]) if i == 0 else (e[0], e[1] - 1)
                raw[e2] = raw.get(e2, Fraction(0)) + c * e[i]
        _same(p.diff(i), MPoly(2, raw))
    # exact division: q·d == p exactly when d | p, else None; an exact
    # quotient is that of dividing term by term over ℚ, term order included
    if q:
        for num, d in ((p * q, q), (p * q * Fraction(3, 5), q * 7)):
            got = greedy_div(num, d)
            _same(got, MPoly(2, _divide_over_q(num, d)))
            assert got * d == num
        if q.total_degree() > 0:
            assert greedy_div(p * q + 1, q) is None
    if p:
        got = greedy_div(q, p)
        assert got is None or got * p == q
    # the mod-P image: None exactly when P | den, else φ(den·p)
    b = mod_image(MPoly.var(2, 1))[0]
    for r in (p, p * Fraction(1, MOD_P), q * Fraction(5, 2 * MOD_P) + p, p * MOD_P):
        img = mod_image(r)
        assert (img is None) == (r.den % MOD_P == 0)
        if img is not None:
            assert [v % MOD_P for v in img] == _image_over_q(r, b)
    # the swap is an involution, keeps term order, and is a ring map
    _same(swap_vars(swap_vars(p)), p)
    assert list(swap_vars(p).terms) == [(e[1], e[0]) for e in p.terms]
    assert swap_vars(p * q + p) == swap_vars(p) * swap_vars(q) + swap_vars(p)


@given(st.dictionaries(st.integers(0, 5), small_fracs, max_size=6))
@settings(max_examples=40, deadline=None)
def test_mod_image_of_one_variable(cs):
    # in one variable φ substitutes nothing: φ(den·p) is den·p mod P
    p = MPoly(1, {(k,): c for k, c in cs.items()})
    for r in (p, p * Fraction(1, MOD_P), p * Fraction(5, 2 * MOD_P) + 1, p * MOD_P):
        img = mod_image(r)
        assert (img is None) == (r.den % MOD_P == 0)
        if img is not None:
            want = [0] * (r.total_degree() + 1)
            for (k,), c in r.terms.items():
                want[k] = int(c * r.den) % MOD_P
            assert [v % MOD_P for v in img] == want


def test_mpoly_ops_drop_cancelled_terms():
    a, b = MPoly.var(2, 0), MPoly.var(2, 1)
    assert (a * b + 1 - a * b).terms == {(0, 0): Fraction(1)}
    assert ((a + b) * (a - b)).terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert (a + b + (-(a + b))).is_zero()
    assert (b * b + 3).diff(0).is_zero()
