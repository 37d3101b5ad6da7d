"""Two-cut expansions: interleaved endpoint corrections, the classification
of merging points, and the symmetric double-scaled ladder."""

import json
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen.diffpoly import DiffPoly, XRelation
from largen.errors import (
    Mismatch,
    NoTwoCutSolution,
    SingularHodograph,
    TruncationExceeded,
)
from largen.mpolys import (
    MOD_P,
    MPoly,
    MRatFunc,
    _exact_div,
    _irreducible,
    _Loc,
    _monic_image,
    greedy_div,
    loc_factors,
    mod_image,
    swap_vars,
)
from largen.onecut import _RegularEngine, _ratfunc, find_critical
from largen.polys import RationalFunc
from largen.potential import Potential, parse_potential
from largen.structured import gamma_moment, phi_moment, psi_poly
from largen.twocut import (
    MergingPoint,
    _solvable,
    _two_pole_basis,
    _TwoCutRegularEngine,
    expand_two_cut_regular,
    find_merging,
    symmetric_scaled_series,
)
from largen import twocut
from largen.wring import WElem

MERGING = parse_potential("quartic:-2,1")
SEXTIC2 = parse_potential("sextic:-6,-3,1")  # merges at order m = 2
IRRATIONAL = parse_potential("sextic:-6,-1,1")  # merging point at (1+2√7)/9

DATA = Path(__file__).parent / "data"

A1 = DiffPoly.var("a1")
A2 = DiffPoly.var("a2")
A3 = DiffPoly.var("a3")


def quartic_endpoints(g2, g4, T, dps=50):
    """Closed forms for the quartic two-cut data, as mpf."""
    with mpmath.workdps(dps):
        T = mpmath.mpf(T.numerator) / T.denominator
        disc = mpmath.mpf(g2) ** 2 - 4 * T * g4
        s = mpmath.sqrt(disc)
        a0 = (s - g2) / (4 * g4)
        b0 = (-g2 - s) / (4 * g4)
        a1 = -g4 * (g2 * g2 + 4 * T * g4 - g2 * s) / (2 * disc**2 * s)
        b1 = g4 * (g2 * g2 + 4 * T * g4 + g2 * s) / (2 * disc**2 * s)
        return a0, b0, a1, b1


class TestRegularExpansion:
    def test_rational_branch_point(self):
        # disc = 4 - 3 = 1, so everything collapses to rationals
        exp = expand_two_cut_regular(MERGING, F(3, 4), K=1)
        assert (exp.a0, exp.b0) == (F(3, 4), F(1, 4))
        assert exp.values() == [(F(3, 4), F(1, 4)), (F(-9, 2), F(5, 2))]
        assert exp.slope_values() == (F(-1, 2), F(1, 2))

    def test_irrational_branch_matches_closed_form(self):
        exp = expand_two_cut_regular(MERGING, F(1, 2), K=1, digits=40)
        vals = exp.values(40)
        a0, b0, a1, b1 = quartic_endpoints(-2, 1, F(1, 2))
        with mpmath.workdps(40):
            assert abs(vals[0][0] - a0) < mpmath.mpf(10) ** -35
            assert abs(vals[0][1] - b0) < mpmath.mpf(10) ** -35
            assert abs(vals[1][0] - a1) < mpmath.mpf(10) ** -35
            assert abs(vals[1][1] - b1) < mpmath.mpf(10) ** -35

    def test_slopes_are_dT_of_branch_points(self):
        # a0 = (√disc - g2)/(4g4) gives da0/dT = -1/(2√disc), and b0 the mirror
        exp = expand_two_cut_regular(MERGING, F(1, 2), K=0, digits=40)
        da, db = exp.slope_values(40)
        with mpmath.workdps(40):
            s = mpmath.sqrt(mpmath.mpf(2))
            assert abs(da + 1 / (2 * s)) < mpmath.mpf(10) ** -35
            assert abs(db - 1 / (2 * s)) < mpmath.mpf(10) ** -35

    def test_subsequences_swap_roles(self):
        # b_k(a0, b0) is a_k with the endpoints exchanged
        exp = expand_two_cut_regular(MERGING, F(3, 4), K=1)
        pt, tp = (F(7, 5), F(2, 7)), (F(2, 7), F(7, 5))
        for ak, bk in exp.coeffs:
            assert bk.eval(pt) == ak.eval(tp)

    def test_ordering_of_interleaved_limits(self):
        exp = expand_two_cut_regular(MERGING, F(3, 4), K=0)
        assert exp.a0 > exp.b0 > 0

    def test_single_well_refuses(self):
        with pytest.raises(NoTwoCutSolution):
            expand_two_cut_regular(parse_potential("quartic:1,1"), F(1), K=0)

    def test_merging_temperature_refuses(self):
        with pytest.raises(SingularHodograph):
            expand_two_cut_regular(MERGING, F(1), K=0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            expand_two_cut_regular(MERGING, F(3, 4), K=-1)

    def test_truncation_guard(self):
        exp = expand_two_cut_regular(MERGING, F(3, 4), K=1)
        assert exp.pair(1) == exp.coeffs[1]
        with pytest.raises(TruncationExceeded):
            exp.pair(2)
        # a negative index must not wrap round to the top order
        with pytest.raises(ValueError, match="nonnegative"):
            exp.pair(-1)

    def test_json_document(self):
        doc = expand_two_cut_regular(MERGING, F(3, 4), K=1).to_json()
        assert set(doc) == {"a0", "b0", "coeffs", "eval"}
        assert (doc["a0"], doc["b0"]) == ("3/4", "1/4")
        assert doc["eval"]["a"] == ["3/4", "-9/2"]
        assert doc["eval"]["b"] == ["1/4", "5/2"]
        assert doc["eval"]["da0_dT"] == "-1/2"

    def test_quartic_k1_json_pinned(self):
        # frozen to_json of the regular two-cut engine
        doc = expand_two_cut_regular(MERGING, F(3, 4), K=1).to_json(30)
        name = "expand_two_cut_regular_quartic_-2_1_T3_4_K1.json"
        want = (DATA / name).read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_sextic_k1_json_pinned(self):
        # the sextic's Jacobian determinant has degree 4, the quartic's 2
        doc = expand_two_cut_regular(SEXTIC2, F(6), K=1, digits=30).to_json(30)
        name = "expand_two_cut_regular_sextic_-6_-3_1_T6_K1.json"
        want = (DATA / name).read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_engine_k2_pinned(self):
        # a_k, b_k through K = 2, frozen from the engine that rebuilt the
        # whole defect at every order
        a_list, b_list, _, _ = _TwoCutRegularEngine(MERGING).run(2)
        names = ("a0", "b0")
        doc = {
            "a": [c.to_ratfunc().render(names) for c in a_list],
            "b": [c.to_ratfunc().render(names) for c in b_list],
        }
        want = (DATA / "two_cut_engine_quartic_-2_1_K2.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_shared_solves_are_bounded(self, monkeypatch):
        # one output per (potential, K) in a bounded memo: equal couplings
        # under another label hit it at the same K, handing back the stored
        # pairs in a tuple, which no caller can change
        memo = twocut._two_cut
        assert memo.cache_info().maxsize == 32
        memo.cache_clear()
        first = expand_two_cut_regular(parse_potential("quartic:-3,1"), F(1), 2)
        monkeypatch.setattr(twocut._TwoCutRegularEngine, "run", None)  # a run would fail
        monkeypatch.setattr(twocut, "_TwoCutRegularEngine", None)  # a miss would fail
        again = expand_two_cut_regular(parse_potential("gs:-3,1"), F(1), 2)
        assert memo.cache_info().hits == 1 and memo.cache_info().misses == 1
        assert isinstance(again.coeffs, tuple) and again.coeffs is first.coeffs
        assert again.slopes is first.slopes

    @given(
        g2=st.sampled_from([-2, -3, -4]),
        num=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=12, deadline=None)
    def test_quartic_family_first_correction(self, g2, num):
        # pick T so the discriminant is a perfect square: everything rational
        s = F(num, 4)
        if s >= -g2:
            s = -g2 - F(1, num + 1)
        T = F(g2 * g2 - s * s, 4)
        exp = expand_two_cut_regular(parse_potential(f"quartic:{g2},1"), T, K=1)
        disc = F(g2 * g2) - 4 * T
        expect_a1 = -(F(g2 * g2) + 4 * T - g2 * s) / (2 * disc**2 * s)
        expect_b1 = (F(g2 * g2) + 4 * T + g2 * s) / (2 * disc**2 * s)
        assert exp.values()[1] == (expect_a1, expect_b1)


A0, B0 = MPoly.var(2, 0), MPoly.var(2, 1)


def _mpoly(p) -> MPoly:
    """The Poly p as a one-variable MPoly: the two share one table format."""
    return MPoly._trusted(1, p.den, p.nums)


# the factors a _Loc canonicalizes against: two Jacobian determinants, b₀-a₀
# and a one-cut W'(ρ)
DIVISORS = {
    "quartic det": _TwoCutRegularEngine(MERGING).det_mp,
    "sextic det": _TwoCutRegularEngine(SEXTIC2).det_mp,
    "b0-a0": B0 - A0,
    "sextic W'": _mpoly(parse_potential("sextic:42,-11,1").hodograph().derivative()),
}


def _mpolys(nvars: int):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * nvars),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        max_size=6,
    ).map(lambda t: MPoly(nvars, t))


class TestExactDivision:
    @given(name=st.sampled_from(sorted(DIVISORS)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_multiples_divide_back(self, name, data):
        d = DIVISORS[name]
        q = data.draw(_mpolys(d.nvars))
        assert _exact_div(q * d, d, _monic_image(d)) == q

    @given(name=st.sampled_from(sorted(DIVISORS)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_filter_agrees_with_greedy_division(self, name, data):
        d = DIVISORS[name]
        p, q = data.draw(_mpolys(d.nvars)), data.draw(_mpolys(d.nvars))
        for num in (p, q * d + p, q * d * d):
            assert _exact_div(num, d, _monic_image(d)) == greedy_div(num, d)

    def test_filter_skips_the_rational_division(self, monkeypatch):
        d = DIVISORS["sextic det"]
        p = d * (A0 * B0 + 3) + 1

        def refuse(p, d):
            raise AssertionError("the modular image should have decided this")

        monkeypatch.setattr("largen.mpolys.greedy_div", refuse)
        assert _exact_div(p, d, _monic_image(d)) is None

    def test_denominator_divisible_by_p_falls_back(self):
        d = DIVISORS["quartic det"]
        q = A0 * B0 * F(1, MOD_P) + B0
        assert mod_image(q * d) is None
        assert _exact_div(q * d, d, _monic_image(d)) == q
        assert _exact_div(q * d + A0, d, _monic_image(d)) is None
        assert _monic_image(d * F(1, MOD_P)) is None

    def test_constant_divisor_has_no_filter(self):
        assert _monic_image(MPoly.const(2, 3)) is None
        p = A0 * A0 - B0
        assert _exact_div(p, MPoly.const(2, 3), None) == p * F(1, 3)

    def test_one_image_when_no_division_succeeds(self, monkeypatch):
        # det and b₀-a₀ are tried against the same image of the numerator
        det = DIVISORS["sextic det"]
        fs = loc_factors(det, B0 - A0)
        calls = []

        def counting(p):
            calls.append(p)
            return mod_image(p)

        monkeypatch.setattr("largen.mpolys.mod_image", counting)
        loc = _Loc(fs, A0 * A0 * B0 + 3)
        assert loc.e == (0, 0)
        assert len(calls) == 1
        calls.clear()
        loc = _Loc(fs, (A0 * B0 + 1) * (B0 - A0) * det)
        assert (loc.e, loc.num) == ((-1, -1), A0 * B0 + 1)
        assert len(calls) == 3  # once, then once after each division

    def test_failed_lambda_division_is_a_mismatch(self):
        one = WElem.from_poly(F(-2), F(1), [F(1)])
        with pytest.raises(Mismatch, match="solvability: probe"):
            _solvable(one, 1, "probe")


# localised rings: W'(ρ) of a quartic, a sextic's W' = 12(15ρ - 7)(ρ - 1)
# kept as one factor (reducible, so without a certificate), and (det, b₀-a₀)
LOC_FACTORS = {
    "quartic": (_mpoly(parse_potential("quartic:1,1").hodograph().derivative()),),
    "sextic": (DIVISORS["sextic W'"],),
    "two-cut": (DIVISORS["quartic det"], B0 - A0),
}


def _quotient(x: _Loc):
    """x in the fraction field it lies in: RationalFunc of ρ, or MRatFunc."""
    return _ratfunc(x) if x.num.nvars == 1 else x.to_ratfunc()


def _loc_element(data, fs) -> tuple:
    factors = fs[0]
    num = data.draw(_mpolys(factors[0].nvars))
    return num, data.draw(st.tuples(*[st.integers(-2, 4)] * len(factors)))


class TestLocRing:
    """mpolys._Loc agrees with the fraction field it localises, over one
    variable (against RationalFunc) and over two (against MRatFunc)."""

    @pytest.mark.parametrize("name", sorted(LOC_FACTORS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_ops_match_quotients(self, name, data):
        fs = loc_factors(*LOC_FACTORS[name])
        x, y = (_Loc(fs, *_loc_element(data, fs)) for _ in range(2))
        fx, fy = _quotient(x), _quotient(y)
        assert _quotient(x + y) == fx + fy
        assert _quotient(x - y) == fx - fy
        assert _quotient(x * y) == fx * fy
        assert (x == y) == (fx == fy)
        if isinstance(fx, RationalFunc):
            assert _quotient(x.diff(0)) == fx.derivative()
        else:
            for k in (0, 1):
                assert _quotient(x.diff(k)) == fx.diff(k)
            assert _quotient(x.swapped()) == MRatFunc(swap_vars(fx.num), swap_vars(fx.den))

    @pytest.mark.parametrize("name", sorted(LOC_FACTORS))
    @given(data=st.data(), k=st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @settings(max_examples=30, deadline=None)
    def test_one_pass_difference_is_the_sum_with_the_negation(self, name, data, k):
        # the same lifts, trials and numerator key order as x + (−y), whose
        # order the two-cut eval strings read
        fs = loc_factors(*LOC_FACTORS[name])
        x, y = (_Loc(fs, *_loc_element(data, fs)) for _ in range(2))
        zero = x * 0
        for a, b in ((x, y), (y, x), (x + y, y), (x, x), (zero, y), (x, zero), (x, k)):
            got, want = a - b, a + (-b)
            assert got.e == want.e and got.num.den == want.num.den
            assert list(got.num.nums.items()) == list(want.num.nums.items())

    @pytest.mark.parametrize("name", sorted(LOC_FACTORS))
    @given(data=st.data(), lift=st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_equality_sees_through_lifting(self, name, data, lift):
        # num·Π f^{-e} and (num·f_i^l)·f_i^{-(e_i+l)} are one element, whether
        # construction divides the f_i^l back out or is told not to try
        fs = loc_factors(*LOC_FACTORS[name])
        num, e = _loc_element(data, fs)
        i = data.draw(st.integers(0, len(e) - 1))
        x = _Loc(fs, num, e)
        e_up = tuple(v + lift if k == i else v for k, v in enumerate(e))
        for y in (_Loc(fs, num * fs[0][i] ** lift, e_up),
                  _Loc(fs, num * fs[0][i] ** lift, e_up, trials=())):
            assert x == y
            assert x.diff(0) == y.diff(0)
            assert not x - y

    def test_unit_factor_is_never_trial_divided(self, monkeypatch):
        # greedy_div by a constant always succeeds, so dividing a unit out
        # would never stop; the Gaussian's W' = 2g₂ is one.  The divisions
        # are counted, so a regression fails here instead of hanging.
        divisors = []

        def bounded(p, d):
            divisors.append(d)
            assert len(divisors) < 20, "trial division does not stop"
            return greedy_div(p, d)

        monkeypatch.setattr("largen.mpolys.greedy_div", bounded)
        rho = MPoly.var(1, 0)
        x = _Loc(loc_factors(MPoly.const(1, 6)), rho * rho + 1, (2,))
        assert (x.num, x.e) == (rho * rho + 1, (2,))
        assert x.to_ratfunc() == MRatFunc(rho * rho + 1, MPoly.const(1, 36))
        y = _Loc(loc_factors(MPoly.const(2, 3), B0 - A0), (A0 * B0 + 1) * (B0 - A0))
        assert (y.num, y.e) == (A0 * B0 + 1, (0, -1))
        gauss = _RegularEngine(Potential.gaussian())
        assert gauss.rho.e == (0,) and gauss.rho / gauss.Wp == gauss.rho * F(1, 2)
        assert all(d.total_degree() > 0 for d in divisors)


# the engines' own rings: W' split into certified linear factors on one cut,
# (det, b₀-a₀) on two, det certified through a specialisation b₀ ↦ c
ENGINE_RINGS = {
    "sextic:42,-11,1": _RegularEngine(parse_potential("sextic:42,-11,1")).fs,
    "sextic:24,-13,2": _RegularEngine(parse_potential("sextic:24,-13,2")).fs,
    "quartic:-2,1": _TwoCutRegularEngine(MERGING).a0.fs,
    "sextic:-6,-3,1": _TwoCutRegularEngine(SEXTIC2).a0.fs,
}
# and a factor free of b₀, whose ∂/∂b₀-numerator it divides
RULE_RINGS = {**ENGINE_RINGS, "a0+1, b0-a0": loc_factors(A0 + 1, B0 - A0)}


def _every_trial(fs) -> tuple:
    """The ring of fs with no factor certified: every operation tries every
    factor, as the ring did before certificates."""
    trials = tuple((i, f, img, False, False, (False,) * f.nvars) for i, f, img, *_ in fs[1])
    return fs[0], trials, fs[2], trials


def _same(x: _Loc, y: _Loc) -> bool:
    """One representation: exponents, denominator, and numerator keys in order."""
    return (x.e, x.num.den, list(x.num.nums.items())) == (y.e, y.num.den, list(y.num.nums.items()))


class TestTrialRules:
    """A trial skipped by a rule of ``_Loc`` could only have failed: each
    product, sum and derivative of canonical elements equals the same
    operation in the ring that tries every factor, representation and all."""

    def test_engine_factors_are_certified(self):
        for fs in ENGINE_RINGS.values():
            assert fs[1] and all(prime for _, _, _, prime, *_ in fs[1])
            assert fs[3] == ()  # no product trials

    @pytest.mark.parametrize("name", sorted(RULE_RINGS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rules_skip_only_failing_trials(self, name, data):
        fs = RULE_RINGS[name]
        slow = _every_trial(fs)
        factors = fs[0]
        elements = []
        for _ in range(2):
            num, e = _loc_element(data, fs)
            # a numerator with factors in it, so that canonicalisation divides
            for i, k in enumerate(data.draw(st.tuples(*[st.integers(0, 2)] * len(factors)))):
                num = num * factors[i] ** k
            elements.append(_Loc(fs, num, e))
        x, y = elements
        sx, sy = (_Loc(slow, c.num, c.e, trials=()) for c in elements)
        assert _same(x * y, sx * sy)
        assert _same(x + y, sx + sy)
        assert _same(x - y, sx - sy)
        for k in range(factors[0].nvars):
            assert _same(x.diff(k), sx.diff(k))
        # a zero summand gives back the other, which re-canonicalises to itself
        zero = _Loc(fs, MPoly.const(factors[0].nvars, 0))
        for z in (x + zero, zero + x, x + 0, x - 0):
            assert z is x or not (x or z)
        assert _same(x, _Loc(slow, x.num, x.e))
        E = tuple(max(v, 0) for v in x.e)
        assert x == _Loc(slow, x._lift(E), E)

    def test_uncertified_factor_keeps_product_trials(self, monkeypatch):
        # x⁴ - 10x² + 1, the minimal polynomial of √2 + √3, is irreducible
        # over ℚ but reducible modulo every prime: no certificate exists
        x = MPoly.var(1, 0)
        f = x**4 - x**2 * 10 + 1
        assert not _irreducible(f)
        fs = loc_factors(f)
        assert fs[3] == fs[1]
        u, v = _Loc(fs, x + 1), _Loc(fs, x**2 + 2)
        tried = []
        monkeypatch.setattr("largen.mpolys._exact_div",
                            lambda p, d, *a: tried.append(d) or _exact_div(p, d, *a))
        product = u * v
        assert tried == [f]
        assert (product.num, product.e) == ((x + 1) * (x**2 + 2), (0,))

    def test_reducible_factor_divides_a_product(self):
        # (x² - 2)(x² - 3) as one factor: neither canonical operand is
        # divisible by it, their product is
        x = MPoly.var(1, 0)
        f = x**4 - x**2 * 5 + 6
        fs = loc_factors(f)
        assert fs[3] == fs[1]
        product = _Loc(fs, x**2 - 2) * _Loc(fs, x**2 - 3)
        assert product.e == (-1,) and product.num.total_degree() == 0

    def test_certificates(self):
        x = MPoly.var(1, 0)
        assert [_irreducible(p) for p in (x + 3, x**2 - 2, x**3 - 2, x**5 - x - 1)] == [True] * 4
        assert not any(_irreducible(p) for p in (x**2 - 4, x**4 + 1, (x**2 + 1) * (x**2 + 2)))
        # two variables: a pure a₀^d term keeps the degree of every b₀ ↦ c
        assert _irreducible(A0 * A0 + B0 * B0 + 1)
        assert not _irreducible((A0 + B0) * (A0 - B0 + 1))
        assert not _irreducible(A0 * B0 + 1)  # irreducible, but no a₀² term

    def test_a_factor_dividing_another_is_refused(self):
        with pytest.raises(Mismatch, match="a localising factor divides another"):
            loc_factors(B0 - A0, (B0 - A0) * (A0 + 1))


class TestFindMerging:
    def test_quartic_point(self):
        pts = find_merging(MERGING)
        assert len(pts) == 1
        p = pts[0]
        assert (p.r_c, p.T_c, p.m) == (F(1, 2), F(1), 1)
        assert p.phi == (F(-4),)
        assert p.gamma1 == F(4)

    def test_sextic_second_order_point(self):
        pts = find_merging(SEXTIC2)
        assert len(pts) == 1
        p = pts[0]
        assert (p.r_c, p.T_c, p.m) == (F(1), F(12), 2)
        assert p.phi == (F(0), F(-12))
        assert p.gamma1 == F(48)

    def test_gaussian_has_none(self):
        assert find_merging(Potential.gaussian()) == ()

    def test_single_well_has_none(self):
        assert find_merging(parse_potential("quartic:1,1")) == ()

    def test_irrational_point_classified(self):
        pts = find_merging(IRRATIONAL, 40)
        assert len(pts) == 1
        p = pts[0]
        assert p.m == 1
        with mpmath.workdps(40):
            expect = (1 + 2 * mpmath.sqrt(7)) / 9
            assert abs(p.r_c - expect) < mpmath.mpf(10) ** -30

    def test_third_order_point_by_construction(self):
        # impose Ψ(1) = φ₁(1) = φ₂(1) = 0 on an octic: the moments are
        # linear in the couplings, so solve the 3×3 system with g8 = 1
        basis = []
        for i in range(3):
            gs = [F(0)] * 4
            gs[i] = F(1)
            gs = tuple(gs)
            basis.append(
                (
                    psi_poly(gs)(F(1)),
                    phi_moment(gs, 1, F(1)),
                    phi_moment(gs, 2, F(1)),
                )
            )
        g8 = tuple(F(x) for x in (0, 0, 0, 1))
        rhs = (
            -psi_poly(g8)(F(1)),
            -phi_moment(g8, 1, F(1)),
            -phi_moment(g8, 2, F(1)),
        )
        # 3x3 exact Gaussian elimination
        M = [[basis[j][i] for j in range(3)] + [rhs[i]] for i in range(3)]
        for c in range(3):
            piv = next(r for r in range(c, 3) if M[r][c])
            M[c], M[piv] = M[piv], M[c]
            M[c] = [x / M[c][c] for x in M[c]]
            for r in range(3):
                if r != c and M[r][c]:
                    M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
        gs = tuple(M[r][3] for r in range(3)) + (F(1),)
        pts = find_merging(Potential(gs))
        match = [p for p in pts if p.r_c == 1]
        assert len(match) == 1
        assert match[0].m == 3
        assert match[0].phi[:2] == (F(0), F(0)) and match[0].phi[2] != 0
        assert gamma_moment(gs, 1, F(1)) == match[0].gamma1 != 0

    def test_points_sorted_by_radius(self):
        pts = find_merging(IRRATIONAL, 30)
        assert list(pts) == sorted(pts, key=lambda p: mpmath.mpf(p.r_c))


def dos_table(rc):
    """The k ≤ 3 two-pole tables as closed forms in the corrections."""
    c2 = A1 * A1 * F(1, 2 * rc)
    b12 = (4 * rc * A2 - A1 * A1) * F(1, 2 * rc)
    a13 = A1.d_dx(2) * F(1, 2) - A1**3 * F(1, 4 * rc * rc)
    b13 = A1 * (4 * rc * A2 - A1 * A1) * F(1, 4 * rc * rc)
    c3 = (
        2 * A3
        - A1.d_dx(2) * F(1, 2)
        + A1 * (A1 * A1 - 2 * rc * A2) * F(1, 2 * rc * rc)
    )
    return c2, b12, a13, b13, c3


class TestScaledSeries:
    def test_quartic_k5_documents_pinned(self):
        # frozen ladder and pole documents of the merged-cut engine
        sc = symmetric_scaled_series(MERGING, find_merging(MERGING)[0], K=5)
        doc = {
            "ladder": [rel.to_json() for rel in sc.ladder],
            "poles": [
                [o.C.to_json(), [a.to_json() for a in o.A], [b.to_json() for b in o.B]]
                for o in sc.orders
            ],
        }
        want = (DATA / "symmetric_scaled_series_quartic_-2_1_K5.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_quartic_k8_documents_pinned(self):
        # frozen from the engine that rebuilt the whole defect at every order
        sc = symmetric_scaled_series(MERGING, find_merging(MERGING)[0], K=8)
        doc = {
            "ladder": [rel.to_json() for rel in sc.ladder],
            "poles": [
                [o.C.to_json(), [a.to_json() for a in o.A], [b.to_json() for b in o.B]]
                for o in sc.orders
            ],
        }
        want = (DATA / "symmetric_scaled_series_quartic_-2_1_K8.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_first_order_element(self):
        pt = find_merging(MERGING)[0]
        sc = symmetric_scaled_series(MERGING, pt, K=3)
        o1 = sc.order(1)
        assert o1.C == 2 * A1
        assert o1.A == () and o1.B == ()

    @pytest.mark.parametrize(
        "g", [MERGING, SEXTIC2], ids=["quartic-m1", "sextic-m2"]
    )
    def test_pole_tables_match_closed_forms(self, g):
        pt = find_merging(g)[0]
        sc = symmetric_scaled_series(g, pt, K=2 * pt.m + 1)
        c2, b12, a13, b13, c3 = dos_table(pt.r_c)
        assert sc.order(2).C == c2
        assert sc.order(2).b_pole(1) == b12
        assert sc.order(2).a_pole(1).is_zero()
        assert sc.order(3).C == c3
        assert sc.order(3).a_pole(1) == a13
        assert sc.order(3).b_pole(1) == b13

    def test_x_enters_at_twice_the_order(self):
        for g in (MERGING, SEXTIC2):
            pt = find_merging(g)[0]
            sc = symmetric_scaled_series(g, pt, K=2 * pt.m + 1)
            for k in range(2 * pt.m + 2):
                q = sc.relation(k).q
                if k == 2 * pt.m:
                    assert q == DiffPoly.const(-1)
                else:
                    assert q.is_zero()

    def test_quartic_ladder_relations(self):
        pt = find_merging(MERGING)[0]
        sc = symmetric_scaled_series(MERGING, pt, K=3)
        assert sc.relation(2) == XRelation(
            8 * A2 - 4 * A1 * A1, DiffPoly.const(-1)
        )
        assert sc.relation(3) == XRelation(
            8 * A1 * A2 - 2 * A1.d_dx(2), DiffPoly.zero()
        )

    def test_quartic_relations_close_into_painleve_two(self):
        # eliminate a2 between the two closing relations: the result is the
        # canonical 2u'' - 4u³ - xu = 0 in u = a1
        pt = find_merging(MERGING)[0]
        sc = symmetric_scaled_series(MERGING, pt, K=3)
        # relation(2): 8a2 - 4a1² = x  →  substitute 8a2 = z + 4a1², and the
        # odd relation 8a1·a2 - 2a1'' = 0 becomes a1(z + 4a1²) - 2a1'' = 0
        odd = sc.relation(3).p
        # a2 appears undifferentiated, so the substitution is polynomial
        lowered = odd.substitute({"a2": A1 * A1 * F(1, 2)})  # the z-free part
        xcoef = odd.substitute({"a2": A1 * A1 * F(1, 2) + F(1, 8)}) - lowered
        rel = XRelation(lowered, xcoef).normalize()
        u = A1
        assert rel == XRelation(
            2 * u.d_dx(2) - 4 * u**3, -u
        ) or rel == XRelation(-2 * u.d_dx(2) + 4 * u**3, u)

    def test_sextic_subcritical_constraints(self):
        pt = find_merging(SEXTIC2)[0]
        sc = symmetric_scaled_series(SEXTIC2, pt, K=5)
        assert sc.relation(2) == XRelation(
            96 * A2 - 24 * A1 * A1, DiffPoly.zero()
        )
        # the odd entry is a consequence: it vanishes once a2 = a1²/4
        odd = sc.relation(3).p.substitute({"a2": A1 * A1 * F(1, 4)})
        assert odd.is_zero()

    def test_diagonal_pole_vanishes(self):
        # A_j^{[2j]} = 0 for every j: the first structural consequence of
        # the merged equation, independent of the potential
        pt = find_merging(SEXTIC2)[0]
        sc = symmetric_scaled_series(SEXTIC2, pt, K=5)
        assert sc.order(2).a_pole(1).is_zero()
        assert sc.order(4).a_pole(2).is_zero()

    def test_pole_tower_derivative_recursions(self):
        # 2r_c ∂x A_j^{[2j+2]} = a1 ∂x A_j^{[2j+1]} and the third-order lift
        # A_{j+1}^{[2j+3]} = -r_c ∂x² A_j^{[2j+1]} + 2 a1 A_j^{[2j+2]}
        pt = find_merging(SEXTIC2)[0]
        rc = pt.r_c
        sc = symmetric_scaled_series(SEXTIC2, pt, K=5)
        a31 = sc.order(3).a_pole(1)
        a41 = sc.order(4).a_pole(1)
        a52 = sc.order(5).a_pole(2)
        assert 2 * rc * a41.d_dx() == A1 * a31.d_dx()
        assert a52 == -rc * a31.d_dx(2) + 2 * A1 * a41

    def test_b_tower_proportionality(self):
        # 2r_c B_j^{[2j+1]} = a1 B_j^{[2j]} for j = 1, 2
        pt = find_merging(SEXTIC2)[0]
        rc = pt.r_c
        sc = symmetric_scaled_series(SEXTIC2, pt, K=5)
        for j in (1, 2):
            lhs = 2 * rc * sc.order(2 * j + 1).b_pole(j)
            assert lhs == A1 * sc.order(2 * j).b_pole(j)

    def test_b_tower_third_order_lift(self):
        # ∂x B_{j+1}^{[2j+2]} = (r_c ∂³ + 2 B₁^{[2]} ∂ + ∂(B₁^{[2]})) B_j^{[2j]}
        pt = find_merging(SEXTIC2)[0]
        rc = pt.r_c
        sc = symmetric_scaled_series(SEXTIC2, pt, K=5)
        b12 = sc.order(2).b_pole(1)
        lhs = sc.order(4).b_pole(2).d_dx()
        rhs = rc * b12.d_dx(3) + 2 * b12 * b12.d_dx() + b12.d_dx() * b12
        assert lhs == rhs

    def test_truncation_below_closing_order_rejected(self):
        pt = find_merging(SEXTIC2)[0]
        with pytest.raises(ValueError):
            symmetric_scaled_series(SEXTIC2, pt, K=4)

    def test_inexact_point_rejected(self):
        pt = find_merging(IRRATIONAL, 30)[0]
        with pytest.raises(ValueError):
            symmetric_scaled_series(IRRATIONAL, pt, K=3)

    def test_order_accessor_guard(self):
        pt = find_merging(MERGING)[0]
        sc = symmetric_scaled_series(MERGING, pt, K=3)
        with pytest.raises(TruncationExceeded):
            sc.order(4)
        with pytest.raises(TruncationExceeded):
            sc.relation(4)
        for accessor in (sc.order, sc.relation):
            with pytest.raises(ValueError, match="nonnegative"):
                accessor(-1)

    def test_one_cut_critical_point_refused(self):
        # it once failed the merged string check with a misleading Mismatch
        g = parse_potential("sextic:42,-11,1")
        crit, before = find_critical(g)[0], twocut._symmetric.cache_info()
        with pytest.raises(TypeError, match="onecut.scaled_series"):
            symmetric_scaled_series(g, crit, 5)
        assert twocut._symmetric.cache_info() == before  # refused before the memo

    def test_fabricated_point_fails_string_check(self):
        fake = MergingPoint(r_c=F(1, 2), T_c=F(2), m=1, phi=(F(-4),), gamma1=F(4))
        with pytest.raises(Mismatch, match="must give T_c"):
            symmetric_scaled_series(MERGING, fake, K=3)


class TestTwoPoleBasis:
    # frozen curve at r_c = 1: w² = λ(λ - 4)
    D1, D0 = F(-4), F(0)

    def test_growth_at_infinity_refused(self):
        # w·(λ²/w) = λ² is not bounded at infinity
        e = WElem.from_poly(self.D1, self.D0, [F(0), F(0), F(1)], wpow=1)
        with pytest.raises(Mismatch, match="grows at infinity"):
            _two_pole_basis(e, F(4), DiffPoly.zero())

    def test_basis_functions_are_read_back(self):
        # w·𝕍 = 5 + 2(λ-4)/λ² - 3λ/(λ-4): C = 5, A = [0, 2], B = [-3]
        w_inv = WElem.from_poly(self.D1, self.D0, [F(1)], wpow=1)
        a2 = w_inv.mul_poly([F(-4), F(1)]).div_linear_root(F(0)).div_linear_root(F(0))
        b1 = w_inv.mul_poly([F(0), F(1)]).div_linear_root(F(4))
        C, A, B = _two_pole_basis(
            w_inv.scale(F(5)) + a2.scale(F(2)) + b1.scale(F(-3)), F(4), DiffPoly.zero()
        )
        assert C == DiffPoly.const(5)
        assert A == [DiffPoly.zero(), DiffPoly.const(2)]
        assert B == [DiffPoly.const(-3)]
