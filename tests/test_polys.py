"""Tests for the exact univariate and multivariate polynomial layers."""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen.diffpoly import DiffPoly
from largen.mpolys import (
    MOD_P,
    MPoly,
    MRatFunc,
    _image_divisible,
    _rem,
    greedy_div,
    mod_image,
    swap_vars,
)
from largen.polys import Poly, RationalFunc
from largen.wring import _pshift

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
    # (x+2)^3 - 6(x+2) expanded, by the production Taylor shift
    s = Poly(_pshift(p.coeffs, 2))
    assert s == x**3 + 6 * x**2 + 6 * x - 4


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


def test_poly_is_an_integer_table_in_lowest_terms():
    p = Poly([Fraction(1, 2), 0, Fraction(-3, 4)])
    assert (p.den, p.nums) == (4, {0: 2, 2: -3})
    assert (p * 4).den == 1 and (p - p).nums == {} and (p - p).den == 1
    assert p.coeffs == (Fraction(1, 2), Fraction(0), Fraction(-3, 4))
    assert Poly([2, 4]) * Fraction(1, 2) == Poly([1, 2]) == 1 + 2 * Poly.x()


def _euclid_gcd(a: list, b: list) -> list:
    """Monic gcd of Fraction coefficient lists (lowest first), by Euclid's
    algorithm over the rationals: the reference for ``Poly.gcd``."""
    def strip(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    a, b = strip(list(a)), strip(list(b))
    while b:
        rem = list(a)
        while len(rem) >= len(b):
            c = rem[-1] / b[-1]
            for j, bj in enumerate(b):
                rem[len(rem) - len(b) + j] -= c * bj
            rem = strip(rem[:-1])
        a, b = b, rem
    return [c / a[-1] for c in a] if a else []


@given(small_polys, small_polys, small_polys)
@settings(max_examples=80, deadline=None)
def test_poly_gcd_matches_euclid_over_fractions(a, b, c):
    # a common factor c makes the gcd nontrivial
    for p, q in ((a * c, b * c), (a, b), (a * c * c, (a * c).derivative())):
        g = p.gcd(q)
        assert list(g.coeffs) == _euclid_gcd(p.coeffs, q.coeffs)
        if g:
            assert g.leading() == 1
            assert not p.divmod(g)[1] and not q.divmod(g)[1]


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


def test_ratfunc_hash_agrees_with_equality():
    x = Poly.x()
    assert RationalFunc.const(3) == 3 and len({RationalFunc.const(3), 3}) == 1
    assert RationalFunc(x) == x and len({RationalFunc(x), x}) == 1
    assert hash(RationalFunc.const(Fraction(-1, 2))) == hash(Fraction(-1, 2))
    assert hash(RationalFunc(x + 1, x - 2)) == hash(RationalFunc(2 * x + 2, 2 * x - 4))
    with pytest.raises(TypeError):  # unreduced: no cheap hash agrees with ==
        hash(MRatFunc(MPoly.var(2, 0), MPoly.var(2, 1)))


# -- the shared quotient algebra: reduced one-variable RationalFunc against
# the unreduced MRatFunc in one variable, whose MPoly shares Poly's table


def _mp(p: Poly) -> MPoly:
    return MPoly._trusted(1, p.den, dict(p.nums))


def _agree(r: RationalFunc, m: MRatFunc) -> bool:
    """r and m are the same function: equal cross-products of their parts."""
    return _mp(r.num) * m.den == m.num * _mp(r.den)


@given(small_polys, small_polys, small_polys, small_polys, small_fracs,
       st.integers(-5, 5), st.integers(-3, 3))
@settings(max_examples=60)
def test_quotient_kinds_agree(an, ad, bn, bd, c, k, n):
    if ad.is_zero() or bd.is_zero():
        return
    r1, r2 = RationalFunc(an, ad), RationalFunc(bn, bd)
    m1, m2 = MRatFunc(_mp(an), _mp(ad)), MRatFunc(_mp(bn), _mp(bd))
    pairs = [(r1 + r2, m1 + m2), (r1 - r2, m1 - m2), (r1 * r2, m1 * m2), (-r1, -m1),
             (r1.derivative(), m1.diff(0)), (r1 + r1, m1 + m1)]
    for s in (c, k):  # Fraction and int scalars, on both sides
        pairs += [(r1 + s, m1 + s), (s + r1, s + m1), (r1 - s, m1 - s), (s - r1, s - m1),
                  (r1 * s, m1 * s), (s * r1, s * m1)]
        if s:
            pairs.append((r1 / s, m1 / s))
        if r1:
            pairs.append((s / r1, s / m1))
    if r2:
        pairs.append((r1 / r2, m1 / m2))
    if r1 or n >= 0:
        pairs.append((r1**n, m1**n))
    for r, m in pairs:
        assert _agree(r, m)
    # cross-multiplied == is the structural test on RationalFunc's reduced parts
    same = RationalFunc(an * bd, ad * bd)
    for other in (r2, same):
        assert (r1 == other) == (r1.num == other.num and r1.den == other.den)
    assert (m1 == m2) == (r1 == r2)


def test_quotient_kinds_normalise_zero_and_refuse_zero_divisors():
    x = Poly.x()
    for r, zero, one in ((RationalFunc(Poly.zero(), x + 1), Poly.zero(), Poly.one()),
                         (MRatFunc(_mp(Poly.zero()), _mp(x + 1)), _mp(Poly.zero()), _mp(Poly.one()))):
        assert r.is_zero() and not r and r == 0
        assert r.num == zero and r.den == one  # den 1 whatever den was given
        f = type(r)(one, one + one)
        assert (f - f).den == one
        for bad in (lambda: type(r)(one, zero), lambda: f / r, lambda: f / 0,
                    lambda: r**-1, lambda: 1 / r):
            with pytest.raises(ZeroDivisionError):
                bad()


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
    out = [0] * (max((e[0] for e in p.terms), default=-1) + 1)
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


def test_mpoly_refuses_exponents_outside_its_fields():
    # a negative exponent used to be kept, and landed in mod_image's last slot
    for bad in ((-1, 0), (0, -2), (1.5, 0), (2**31, 0), (0, 2**31)):
        with pytest.raises(ValueError):
            MPoly(2, {bad: 1, (1, 0): 1})
    top = 2**31 - 1
    assert MPoly(2, {(top, 1): 1}).terms == {(top, 1): Fraction(1)}


def test_mpoly_exponents_never_alias_into_the_next_field():
    a, b = MPoly.var(2, 0), MPoly.var(2, 1)
    with pytest.raises(OverflowError):
        b ** 2**31
    with pytest.raises(OverflowError):
        MPoly(2, {(0, 2**31 - 1): 1}) * b
    with pytest.raises(OverflowError):  # the quotient b^(2^30+5) times b^(2^30)
        greedy_div(MPoly(2, {(1, 2**30 + 5): 1}), a + MPoly(2, {(0, 2**30): 1}))
    assert (a * b ** (2**31 - 2) * b).terms == {(1, 2**31 - 1): Fraction(1)}


def test_derivative_counts_and_variable_indices_are_checked():
    # a negative count used to return the input, and diff(-1) gave 0
    with pytest.raises(ValueError):
        Poly((1, 2, 3)).derivative(-1)
    assert Poly((1, 2, 3)).derivative(0) == Poly((1, 2, 3))
    for i in (-1, 2, 5):
        with pytest.raises(ValueError):
            MPoly.var(2, 0).diff(i)
    assert MPoly.var(2, 0).diff(1).is_zero() and MPoly.var(2, 0).diff(0) == 1


_residues = st.integers(-(2**70), 2**70)


@given(st.lists(_residues, max_size=8), st.integers(0, MOD_P - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_linear_image_test_agrees_with_the_remainder(f, g0, divisible):
    # the Horner pass at -g0 decides x + g0 | f as the generic remainder does
    g = [g0, 1]
    if divisible:  # f·(x + g0), unreduced
        f = [a + g0 * b for a, b in zip([0, *f], [*f, 0])]
    want = not any(v % MOD_P for v in _rem(list(f), g))
    assert _image_divisible(list(f), g) == want
    if divisible:
        assert want


def test_greedy_div_refuses_a_quotient_with_a_negative_exponent():
    a, b = MPoly.var(2, 0), MPoly.var(2, 1)
    assert greedy_div(a, b) is None
    assert greedy_div(b**3, a * a) is None
    assert greedy_div(a * a * b, a * b) == a


_wide_terms = st.dictionaries(
    st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=8,
)


@given(st.one_of(_mpoly_terms, _wide_terms))
@settings(max_examples=60, deadline=None)
def test_packed_keys_are_lex_ordered_and_read_back_as_tuples(t):
    p = MPoly(2, t)
    if p:
        assert list(MPoly(2, {max(p.terms): 1}).nums) == [max(p.nums)]
    again = MPoly(2, p.terms)
    _same(again, p)
    assert list(again.nums) == list(p.nums)
    _same(swap_vars(swap_vars(p)), p)


@given(_mpoly_terms, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_greedy_div_by_a_monomial(t, i, j):
    p, m = MPoly(2, t), MPoly(2, {(i, j): 3})
    got = greedy_div(p, m)
    if all(ea >= i and eb >= j for ea, eb in p.terms):
        assert got * m == p
    else:
        assert got is None


def test_one_variable_mpoly_and_poly_share_one_table():
    p = Poly([Fraction(1, 2), 0, 3])
    m = MPoly(1, {(0,): Fraction(1, 2), (2,): 3})
    assert (m.den, m.nums) == (p.den, p.nums)
    assert m.render(["x"]) == p.render() == "3*x^2 + 1/2"


# The three integer tables, each as (its keys, a constructor from {key:
# Fraction}, its constant key, its constant constructor).  Their additive
# group, scalar coercion, equality and hash are the one shared ``IntTable``'s.
_U, _V = ("u", 0, 1), ("v", 0, 1)
TABLE_KINDS = {
    "Poly": (
        st.integers(0, 4),
        lambda t: Poly([t.get(i, 0) for i in range(5)]),
        0,
        Poly.const,
    ),
    "MPoly-2": (
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        lambda t: MPoly(2, t),
        (0, 0),
        lambda c: MPoly.const(2, c),
    ),
    "DiffPoly": (
        st.sampled_from([(), (_U,), (("u", 1, 1),), (("u", 0, 2),), (_U, _V)]),
        DiffPoly,
        (),
        DiffPoly.const,
    ),
}


def _plus(*tables) -> dict:
    """Σ of {key: Fraction} tables, zero entries dropped."""
    out: dict = {}
    for t in tables:
        for k, c in t.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_shared_table_algebra(kind, data):
    keys, make, one, const = TABLE_KINDS[kind]
    table = st.dictionaries(keys, small_fracs, max_size=4).map(make)
    a, b = data.draw(table), data.draw(table)
    c = data.draw(st.one_of(small_fracs, st.integers(-5, 5)))
    neg = lambda t: {k: -v for k, v in t.items()}
    cs = {one: Fraction(c)}
    assert (a + b).terms == _plus(a.terms, b.terms)
    assert (a - b).terms == _plus(a.terms, neg(b.terms))
    assert (-a).terms == neg(a.terms)
    assert (c + a).terms == (a + c).terms == _plus(a.terms, cs)
    assert (a - c).terms == _plus(a.terms, neg(cs))
    assert (c - a).terms == _plus(cs, neg(a.terms))
    # a zero operand, scalar or table, gives back the other operand itself
    zero = const(0)
    for z in (0, Fraction(0), zero):
        assert a + z is a and a - z is a
        assert z + a is (zero if z is zero and not a else a)
    # the hash agrees with ==, constants hashing as the Fraction they equal
    assert hash(zero) == hash(0) and hash(a + b - b) == hash(a)
    assert hash(const(c)) == hash(Fraction(c)) and const(c) == c
    assert len({const(3), 3}) == 1 and len({const(Fraction(1, 2)), Fraction(1, 2)}) == 1


def test_mpolys_of_different_arity_are_unequal():
    assert MPoly.var(2, 0) != MPoly.var(3, 0)
    assert not MPoly.const(1, 0) == MPoly.const(2, 0)
    with pytest.raises(ValueError):
        MPoly.const(2, 1) + MPoly.const(3, 1)
