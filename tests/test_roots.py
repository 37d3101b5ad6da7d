"""Tests for exact real-root isolation and refinement.

Frozen oracle values used below:
  * x^2 - 2 has roots ±sqrt(2); sqrt(2) = 1.41421356237309504880168872420969808...
  * the hodograph derivative of the cubic-critical sextic model
    (coefficients 90, -15, 1) is proportional to (r - 1)^2 up to a constant
    factor; its critical point r = 1 must come back exact with multiplicity 2.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen.polys import Poly
from largen.potential import parse_potential
from largen import roots
from largen.roots import RealRoot, real_roots, yun_squarefree
from largen.scalars import mpf_of, rationalize

SQRT2_40 = "1.414213562373095048801688724209698078570"


def _poly_from_roots(rs):
    p = Poly.one()
    for r in rs:
        p = p * Poly([-Fraction(r), 1])
    return p


def test_yun_squarefree_recovers_multiplicities():
    x = Poly.x()
    p = (x - 1) ** 2 * (x + 2) ** 3 * (x - 5)
    fac = dict((m, f) for f, m in yun_squarefree(p))
    assert fac[1] == x - 5
    assert fac[2] == x - 1
    assert fac[3] == x + 2
    # reconstruction up to the (here monic) leading constant
    recon = Poly.one()
    for f, m in yun_squarefree(p):
        recon = recon * f**m
    assert recon == p


def test_yun_squarefree_trivial_cases():
    assert yun_squarefree(Poly.const(7)) == []
    x = Poly.x()
    assert yun_squarefree(3 * x - 6) == [(x - 2, 1)]


def test_rational_roots_detected_exactly():
    p = _poly_from_roots([Fraction(1, 3), Fraction(-7, 2), 4])
    got = real_roots(p)
    assert [r.value for r in got] == [Fraction(-7, 2), Fraction(1, 3), Fraction(4)]
    assert all(r.exact and r.multiplicity == 1 for r in got)


@pytest.mark.parametrize("root", [Fraction(1, 2**21), Fraction(1, 3**13)], ids=["2^-21", "3^-13"])
def test_rational_root_with_large_denominator_is_exact(root):
    # a cubic factor is refined numerically; its rational root must still come back exact
    p = _poly_from_roots([root]) * Poly([-2, 0, 1])
    got = [r for r in real_roots(p) if r.exact]
    assert [r.value for r in got] == [root]


def test_irrational_root_refined_to_digits():
    p = Poly([-2, 0, 1])  # x^2 - 2
    got = real_roots(p, digits=40)
    assert len(got) == 2
    pos = got[1]
    assert not pos.exact
    with mpmath.workdps(45):
        assert abs(pos.value - mpmath.mpf(SQRT2_40)) < mpmath.mpf(10) ** -38


def test_multiplicity_two_rational_root():
    # W'(r) of the order-3 critical model is 180*(r-1)^2
    p = Poly([180, -360, 180])
    got = real_roots(p)
    assert got == [RealRoot(Fraction(1), 2, True)]


def test_window_restriction():
    p = _poly_from_roots([-3, 1, 10])
    got = real_roots(p, lo=Fraction(0), hi=Fraction(5))
    assert [r.value for r in got] == [Fraction(1)]


def test_close_roots_separated():
    # roots at 1 and 1 + 1/1000
    p = _poly_from_roots([1, Fraction(1001, 1000)])
    got = real_roots(p)
    assert [r.value for r in got] == [Fraction(1), Fraction(1001, 1000)]


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        real_roots(Poly.zero())


@given(
    st.lists(
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_all_planted_rational_roots_found(rs):
    p = _poly_from_roots(rs)
    got = real_roots(p)
    assert sorted(r.value for r in got) == sorted(rs)
    assert all(r.exact for r in got)


@given(st.integers(min_value=2, max_value=50))
@settings(max_examples=25, deadline=None)
def test_sqrt_of_integer_accuracy(n):
    p = Poly([-n, 0, 1])
    got = [r for r in real_roots(p, digits=25) if r.value > 0]
    assert len(got) == 1
    from largen.scalars import mpf_of

    with mpmath.workdps(30):
        err = abs(mpf_of(got[0].value, 30) - mpmath.sqrt(n))
        assert err < mpmath.mpf(10) ** -22


# R(b₀, 6) = Res_{a₀}(L, W_a − 6) for sextic:-6,-3,1: degree 6, four real roots
RESULTANT_T6 = Poly([7776, -93312, 279936, -93312, -93312, 186624, -62208])


def _isolated(p):
    bound = roots._root_bound(p)
    return roots._isolate(p, -bound, bound)


def _bisect_then_newton(p, lo, hi, digits):
    """Exact bisection down to 10^−(digits+5), then the mpf Newton polish:
    a plain Fraction loop, independent of ``roots._halve``."""
    width, s_lo = Fraction(1, 10 ** (digits + 5)), p(lo) > 0
    while hi - lo >= width:
        mid = (lo + hi) / 2
        value = p(mid)
        if value == 0:
            return mid, mid, mid
        lo, hi = (mid, hi) if (value > 0) == s_lo else (lo, mid)
    return roots._newton(p, lo, hi, digits), lo, hi


def test_refine_evaluates_the_polynomial_at_most_90_times_per_root(monkeypatch):
    # exact bisection to 10^-35 alone takes about 117 evaluations per root;
    # here about 60 halvings are exact and Newton steers the rest
    # an evaluation is an exact sign over the integers or an mpf value from
    # the coefficients Newton lifted once
    calls = []
    evaluate, sign = roots.horner, roots._sign
    monkeypatch.setattr(roots, "horner", lambda cs, x: calls.append(x) or evaluate(cs, x))
    monkeypatch.setattr(roots, "_sign", lambda ints, x: calls.append(x) or sign(ints, x))
    brackets = _isolated(RESULTANT_T6)
    assert len(brackets) == 4
    for lo, hi in brackets:
        calls.clear()
        roots._refine(RESULTANT_T6, lo, hi, 30)
        assert len(calls) <= 90


@pytest.mark.parametrize("p", [RESULTANT_T6, Poly([-2, 0, 1]), _poly_from_roots([Fraction(1, 3), 5]) + 1],
                         ids=["resultant", "x^2-2", "perturbed"])
def test_refine_returns_what_exact_bisection_returns(p):
    # the guided halvings reach the bisection bracket, so the value is bit for bit the same
    for lo, hi in _isolated(p):
        value, flo, fhi = roots._refine(p, lo, hi, 30)
        assert lo <= flo < fhi <= hi
        assert (value, flo, fhi) == _bisect_then_newton(p, lo, hi, 30)


def test_refine_falls_back_when_the_guide_misleads(monkeypatch):
    newton = roots._newton
    guides = []

    def misled(p, lo, hi, digits):
        guides.append(lo)
        x = newton(p, lo, hi, digits)
        return x + (hi - lo) / 4 if len(guides) == 1 else x

    monkeypatch.setattr(roots, "_newton", misled)
    lo, hi = _isolated(RESULTANT_T6)[1]
    got = roots._refine(RESULTANT_T6, lo, hi, 30)
    monkeypatch.undo()
    assert got == _bisect_then_newton(RESULTANT_T6, lo, hi, 30)
    assert len(guides) == 2


@st.composite
def _steered_cases(draw):
    """(lo, hi, width, guide) as ``_refine`` meets them: non-dyadic ends like
    ``_root_bound``'s and ``_isolate``'s, a width from above hi − lo down to
    10⁻⁴⁰, and a guide off either end, on either end, on a grid point of the
    halvings, or anywhere between."""
    lo = Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**6)))
    d = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**9)))
    width = draw(st.sampled_from([2 * d, d, d / 3]) | st.builds(
        lambda m, e: Fraction(m, 10 ** e), st.integers(1, 9), st.integers(0, 40)))
    n = (d // width).bit_length()
    guide = draw(st.sampled_from([lo, lo + d])
                 | st.builds(lambda e: lo - e, st.fractions(min_value=0, max_value=5))
                 | st.builds(lambda e: lo + d + e, st.fractions(min_value=0, max_value=5))
                 | st.builds(lambda j: lo + d * j / 2**n, st.integers(0, 2**n))
                 | st.builds(lambda t: lo + d * t, st.fractions(min_value=0, max_value=1)))
    return lo, lo + d, width, guide


@given(_steered_cases())
@settings(max_examples=300, deadline=None)
def test_steer_is_the_halving_loop_toward_the_guide(case):
    lo, hi, width, guide = case
    assert roots._steer(lo, hi, width, guide) == roots._halve(lo, hi, width, lambda mid: mid < guide)


def _converted_per_step(p, x):
    acc = mpmath.mpf(0)
    for c in reversed(p.coeffs):
        acc = acc * x + mpf_of(c, mpmath.mp.dps)
    return acc


def _newton_per_step(p, lo, hi, digits):
    """``_newton`` as it was written first: every coefficient is converted to
    mpf on every step."""
    dp = p.derivative()
    with mpmath.workdps(digits + 10):
        x = (mpf_of(lo, digits + 10) + mpf_of(hi, digits + 10)) / 2
        for _ in range(50):
            d = _converted_per_step(dp, x)
            if d == 0:
                break
            step = _converted_per_step(p, x) / d
            x -= step
            if abs(step) < mpmath.mpf(10) ** (-(digits + 6)):
                break
        return +x


@given(st.lists(st.integers(min_value=-60, max_value=60), min_size=3, max_size=8),
       st.sampled_from([30, 60]))
@settings(max_examples=40, deadline=None)
def test_newton_lifted_once_is_bit_for_bit_the_per_step_loop(cs, digits):
    p = Poly(cs)
    if p.degree < 2:
        return
    for factor, _ in yun_squarefree(p):
        for lo, hi in _isolated(factor):
            got = roots._newton(factor, lo, hi, digits)
            want = _newton_per_step(factor, lo, hi, digits)
            assert got._mpf_ == want._mpf_


# real roots as the Euclidean-remainder Sturm chains gave them, each value at its
# exact binary value: rational and repeated roots, and a large integer content
_X = Poly.x()
_PINNED_ROOTS = [
    ((_X - Fraction(1, 2)) ** 3 * (_X + 2) ** 2 * (3 * _X - 7),
     [
         ("-2", 2, True),
         ("1/2", 3, True),
         ("7/3", 1, True),
     ]),
    ((3 * _X - 1) ** 2 * (_X * _X - 2) * (_X - Fraction(7, 5)) * (_X * _X + 1) * Fraction(5, 6),
     [
         ("-30798844053504577477764322877136007286671/21778071482940061661655974875633165533184", 1, False),
         ("1/3", 2, True),
         ("7/5", 1, True),
         ("30798844053504577477764322877136007286673/21778071482940061661655974875633165533184", 1, False),
     ]),
    ((_X * _X - 3) ** 2 * (_X * _X - _X - 1) * _X ** 3 * Fraction(-2, 9),
     [
         ("-75441452598638141794326388655556371793043/43556142965880123323311949751266331066368", 2, False),
         ("-53838353543527135530428510690307157275665/87112285931760246646623899502532662132736", 1, False),
         ("0", 3, True),
         ("8809414967205461386065775637052488713025/5444517870735015415413993718908291383296", 1, False),
         ("75441452598638141794326388655556371793043/43556142965880123323311949751266331066368", 2, False),
     ]),
    ((_X - Fraction(22, 7)) ** 2 * (_X * _X * 1000 - 2000 * _X + 999) * 12345,
     [
         ("21089388393619547609253987190983890253037/21778071482940061661655974875633165533184", 1, False),
         ("44933509144521151428115925120564881626659/43556142965880123323311949751266331066368", 1, False),
         ("22/7", 2, True),
     ]),
]


@pytest.mark.parametrize("p, want", _PINNED_ROOTS,
                         ids=["rational-repeated", "mixed", "irrational-repeated", "large-content"])
def test_real_roots_unchanged_on_repeated_and_rational_roots(p, want):
    got = [(str(rationalize(r.value)), r.multiplicity, r.exact) for r in real_roots(p, 30)]
    assert got == want


# -- isolation and refinement as separate steps --------------------------------


@given(
    st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=6), max_size=3),
    st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=3),
    st.lists(st.integers(min_value=2, max_value=30), max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_rational_roots_are_the_exact_real_roots(rs, mults, squares):
    # planted rational roots with multiplicities, times irrational pairs ±√n
    p = Poly.const(Fraction(3, 7))
    for r, m in zip(rs, mults):
        p = p * Poly([-r, 1]) ** m
    for n in squares:
        p = p * Poly([-n, 0, 1])
    if p.degree < 1:
        return
    want = [(r.value, r.multiplicity) for r in real_roots(p) if r.exact]
    assert roots.rational_roots(p) == want


@pytest.mark.parametrize("name", ["sextic:42,-11,1", "sextic:24,-13,2", "bmp", "quartic:-2,1"])
def test_rational_roots_split_the_hodograph_slope(name):
    wp = parse_potential(name).hodograph().derivative()
    assert roots.rational_roots(wp) == [(r.value, r.multiplicity) for r in real_roots(wp) if r.exact]


def test_real_roots_is_isolate_then_refine():
    for f, m, a, b in roots.isolate(RESULTANT_T6):
        assert (m, a < b) == (1, True)
    got = [roots.refine(f, a, b, 30) for f, _, a, b in roots.isolate(RESULTANT_T6)]
    assert [v._mpf_ for v in got] == [r.value._mpf_ for r in real_roots(RESULTANT_T6, 30)]


@pytest.mark.parametrize("p", [RESULTANT_T6, Poly([-2, 0, 1]), _poly_from_roots([Fraction(1, 3), 5])],
                         ids=["resultant", "x^2-2", "rational"])
def test_bracket_holds_the_refined_root(p):
    for f, _, a, b in roots.isolate(p):
        lo, hi = roots.bracket(f, a, b, 30)
        value = roots.refine(f, a, b, 30)
        assert a <= lo <= hi <= b
        assert hi - lo <= 2 * (1 + abs(rationalize(value))) / Fraction(10) ** 30  # Newton's
        with mpmath.workdps(40):
            assert mpf_of(lo, 40) <= mpf_of(value, 40) <= mpf_of(hi, 40)
        assert roots.certified_irrational(f, lo, hi) is not isinstance(value, Fraction)


def test_bracket_falls_back_to_the_isolating_interval(monkeypatch):
    # a Newton guess inside (a, b) but off the root fails the sign check
    f, _, a, b = roots.isolate(Poly([-2, 0, 1]))[1]
    off = a + (b - a) / 16
    assert a < off < b and abs(off - Fraction(99, 70)) > 1  # √2 ≈ 99/70
    monkeypatch.setattr(roots, "_newton", lambda p, lo, hi, digits: mpf_of(off, 40))
    assert roots.bracket(f, a, b, 30) == (a, b)
    assert not roots.certified_irrational(f, a, b)  # wider than 1/(2·a_n)
