"""Tests for the spectral-curve Laurent module and ε-series scaffolding."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen import onecut, twocut, wring
from largen.diffpoly import DiffPoly, scaled_lattice
from largen.onecut import _RegularEngine, find_critical, scaled_series
from largen.polys import Poly
from largen.potential import parse_potential
from largen.structured import branch_residue, hodograph_poly
from largen.twocut import (
    _principal_part,
    _TwoCutRegularEngine,
    find_merging,
    symmetric_scaled_series,
)
from largen.wring import EpsSeries, WElem, _pshift

R0 = F(1, 3)
D1, D0 = -4 * R0, F(0)  # one-cut curve w² = λ(λ - 4r0)


def elem(slots):
    return WElem(D1, D0, slots)


def lam():
    return WElem.from_poly(D1, D0, [F(0), F(1)])


def one():
    return WElem.from_poly(D1, D0, [F(1)])


class TestNormalForm:
    def test_high_degree_slot_reduces(self):
        # λ³/w² = λ·(1 + (4r0 λ)/w²)… check against direct product instead
        e = WElem(D1, D0, {2: [F(0), F(0), F(0), F(1)]})
        direct = lam() * lam() * lam() * WElem.from_poly(D1, D0, [F(1)], wpow=2)
        assert e == direct
        for j, cs in e.slots.items():
            if j >= 2:
                assert len(cs) <= 2

    def test_cascading_reduction_creates_missing_keys(self):
        # degree-4 numerator at key 4 overflows into key 2, which must then
        # itself be reduced even though it was absent at the start
        e = WElem(D1, D0, {4: [F(0)] * 4 + [F(1)]})
        direct = lam() * lam() * lam() * lam() * WElem.from_poly(D1, D0, [F(1)], wpow=4)
        assert e == direct
        assert all(len(cs) <= 2 for j, cs in e.slots.items() if j >= 2)

    def test_zero_slots_dropped(self):
        assert elem({3: [F(0)], 5: []}).is_zero()


class TestArithmetic:
    def test_lambda_squared_over_w2(self):
        e = lam() * lam() * WElem.from_poly(D1, D0, [F(1)], wpow=2)
        assert e == elem({0: [F(1)], 2: [-D0, -D1]})

    def test_scalar_dispatch(self):
        e = elem({1: [F(2)]})
        assert e * F(3, 2) == elem({1: [F(3)]})
        assert F(3, 2) * e == elem({1: [F(3)]})

    def test_sub_self_is_zero(self):
        e = elem({0: [F(1), F(2)], 3: [F(4)]})
        assert (e - e).is_zero()

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=3),
        st.lists(st.integers(-4, 4), min_size=1, max_size=3),
        st.lists(st.integers(-4, 4), min_size=1, max_size=3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes_and_associates(self, na, nb, nc, ja, jb, jc):
        a = WElem(D1, D0, {ja: [F(c) for c in na]})
        b = WElem(D1, D0, {jb: [F(c) for c in nb]})
        c = WElem(D1, D0, {jc: [F(c) for c in nc]})
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestWMoves:
    def test_w_roundtrips(self):
        x = elem({0: [F(1), F(2), F(3)], 3: [F(5), F(7)]})
        assert x.mul_w().div_w() == x
        assert x.div_w().mul_w() == x

    def test_div_by_branch_roots(self):
        q = one().div_linear_root(F(0))
        assert q * lam() == one()
        shifted = WElem.from_poly(D1, D0, [-4 * R0, F(1)])
        q2 = one().div_linear_root(4 * R0)
        assert q2 * shifted == one()

    def test_non_root_rejected(self):
        with pytest.raises(ValueError):
            one().div_linear_root(F(1))


class TestDivLambdaGeneric:
    # two-cut style curve where λ is not a branch point
    A0, B0 = F(3, 4), F(1, 4)
    E1, E0 = -2 * (A0 + B0), (B0 - A0) ** 2

    def test_recovers_quotient(self):
        z = WElem(self.E1, self.E0, {1: [F(2), F(0), F(5)], 3: [F(1), F(4)], 4: [F(0), F(2)]})
        y = WElem.from_poly(self.E1, self.E0, [F(0), F(1)]) * z
        assert y.div_lambda() == z

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            WElem.from_poly(self.E1, self.E0, [F(1)]).div_lambda()

    def test_branch_point_curve_uses_root_path(self):
        z = elem({3: [F(1), F(4)]})
        assert (lam() * z).div_lambda() == z


class TestCalculus:
    def test_moving_branch_point(self):
        # w² = λ² - 4·r0(T)·λ with dr0/dT = c:  d/dT (1/w) = 2cλ/w³
        c = F(2, 7)
        winv = WElem.from_poly(D1, D0, [F(1)], wpow=1)
        dw = winv.d_dT(lambda _: F(0), [F(0), -4 * c])
        assert dw == elem({3: [F(0), 2 * c]})

    def test_frozen_curve_derives_coefficients_only(self):
        e = elem({1: [F(3)]})
        assert e.d_dT(lambda v: 2 * v, None) == elem({1: [F(6)]})

    def test_product_rule(self):
        c = F(1, 5)
        dw2 = [F(0), -4 * c]
        der = lambda v: F(0)
        a = elem({1: [F(1), F(2)]})
        b = elem({3: [F(4)]})
        lhs = (a * b).d_dT(der, dw2)
        rhs = a.d_dT(der, dw2) * b + a * b.d_dT(der, dw2)
        assert lhs == rhs


class TestContour:
    def test_hodograph_weight_identity(self):
        # ∮ V'(λ)·2λ²/w³ dλ/(2πi) = W'(r0) for the quartic — the universal
        # sensitivity of the one-cut string equation to its unknown.
        gs = [F(1), F(1)]
        el = elem({3: [F(0), F(0), F(2)]})
        got = el.contour_pair([F(1), F(2)])
        assert got == hodograph_poly(gs).derivative()(R0)

    def test_matches_branch_residue_slotwise(self):
        el = elem({1: [F(2), F(3)], 3: [F(1)]})
        w = [F(5), F(7)]
        expect = branch_residue([F(10), F(29), F(21)], D1, D0, -1) + branch_residue(
            [F(5), F(7)], D1, D0, -3
        )
        assert el.contour_pair(w) == expect

    def test_even_key_rejected(self):
        with pytest.raises(ValueError):
            elem({2: [F(1)]}).contour_pair([F(1)])

    def test_polynomial_slot_contributes_nothing(self):
        assert elem({0: [F(1), F(2), F(3)]}).contour_pair([F(1), F(1)]) == 0

    def test_no_odd_slot_integrates_to_the_zero_of_its_ring(self):
        # a regular engine's U₀ over _Loc and a double-scaled one's over DiffPoly
        u0 = _RegularEngine(parse_potential("quartic:1,1")).u0
        _, v0 = scaled_lattice(F(1, 12))
        for e in (u0, v0):
            ring = type(e.d1)
            got = WElem(e.d1, e.d0, {0: [F(1), e.d1]}).contour_pair([F(1), F(2)])
            assert type(got) is ring and not got
            # and map_coeffs maps ring entries only, leaving the scalar padding
            padded, seen = WElem(e.d1, e.d0, {1: [F(0), e.d1]}), []
            assert padded.map_coeffs(lambda c: seen.append(c) or c) == padded
            assert {type(c) for c in seen} == {ring}


class TestEpsSeries:
    def test_shift_inverse(self):
        u = DiffPoly.var("u")
        s = EpsSeries([u, u * u, u.d_dx()], 2, DiffPoly.zero())
        d = lambda p: p.d_dx()
        (up,) = s.shift((1,), d)
        (rt,) = up.shift((-1,), d)
        for k in range(3):
            assert rt.coefficient(k) == s.coefficient(k)

    def test_shift_composition(self):
        u = DiffPoly.var("u")
        d = lambda p: p.d_dx()
        s = EpsSeries([u * u * u, u, DiffPoly.zero(), u.d_dx()], 3, DiffPoly.zero())
        one, two = s.shift((1, 2), d)
        (twice,) = one.shift((1,), d)
        assert all(twice.coefficient(k) == two.coefficient(k) for k in range(4))

    def test_one_tower_for_both_steps(self):
        # the ±1 shifts of the lattice identity share every D^i c_j: each
        # tower entry is derived once, and the results match single shifts
        u = DiffPoly.var("u")
        s = EpsSeries([u * u, u, u.d_dx() * u, DiffPoly.zero()], 3, DiffPoly.zero())
        calls = []

        def d(p):
            calls.append(p)
            return p.d_dx()

        minus, plus = s.shift((-1, 1), d)
        assert len(calls) == 3 + 2 + 1  # D^1..D^{3-j} of c_j, j = 0..2
        for step, got in ((-1, minus), (1, plus)):
            (alone,) = s.shift((step,), lambda p: p.d_dx())
            assert all(got.coefficient(k) == alone.coefficient(k) for k in range(4))

    def test_cauchy_product(self):
        u = DiffPoly.var("u")
        p = EpsSeries([DiffPoly.const(F(1)), u], 2, DiffPoly.zero())
        sq = p * p
        assert sq.coefficient(0) == DiffPoly.const(F(1))
        assert sq.coefficient(1) == 2 * u
        assert sq.coefficient(2) == u * u

    def test_parity_flip(self):
        s = EpsSeries([F(1), F(2), F(3)], 2, F(0))
        f = s.parity_flip()
        assert [f.coefficient(k) for k in range(3)] == [F(1), F(-2), F(3)]

    def test_truncation_enforced(self):
        s = EpsSeries([F(1)], 1, F(0))
        with pytest.raises(IndexError):
            s.coefficient(2)

    def test_product_truncates_to_shorter(self):
        a = EpsSeries([F(1), F(1), F(1)], 2, F(0))
        b = EpsSeries([F(1), F(1)], 1, F(0))
        assert (a * b).order == 1

    def test_welem_coefficients(self):
        # series with curve-valued coefficients, shifted via d_dT
        c = F(1, 2)
        der = lambda e: e.d_dT(lambda _: F(0), [F(0), -4 * c])
        s = EpsSeries(
            [WElem.from_poly(D1, D0, [F(1)], wpow=1), WElem.zero(D1, D0)],
            1,
            WElem.zero(D1, D0),
        )
        (sh,) = s.shift((1,), der)
        assert sh.coefficient(1) == WElem(D1, D0, {3: [F(0), 2 * c]})


def padded(lat, entries, order, step):
    """Σ_k entries[k]·ε^{step·k} as a series truncated at ε^order."""
    cs = []
    for e in entries:
        cs += [e] + [lat.zero] * (step - 1)
    return EpsSeries(cs, order, lat.zero)


class TestGrowingDefect:
    """Every ε^n coefficient of ``wring.Defect`` equals the whole-series
    ``Lattice.defect`` of the same lists, before and after each solve."""

    @staticmethod
    def checked(monkeypatch, top):
        """Make every engine query of a growing defect first compare its
        ε^0..ε^top coefficients with the reference; returns the (len(x), n)
        of each query."""
        queries = []
        coefficient = wring.Defect.coefficient

        def checking(self, n):
            lat, s = self.lat, self.step
            x = padded(lat, self.x, top, s)
            y = x.parity_flip() if s == 1 else padded(lat, self.y, top, s)
            ref = lat.defect(x, y, padded(lat, [lat.embed(c) for c in self.a], top, s))
            for m in range(top + 1):
                assert coefficient(self, m) == ref.coefficient(m), (len(self.x), m)
            queries.append((len(self.x), n))
            got = coefficient(self, n)
            assert got == ref.coefficient(n)
            return got

        monkeypatch.setattr(wring.Defect, "coefficient", checking)
        return queries

    @pytest.mark.parametrize("regime", ["one-cut", "two-cut", "scaled", "merged"])
    def test_matches_whole_series(self, monkeypatch, regime):
        quartic, merging, bmp = map(parse_potential, ("quartic:1,1", "quartic:-2,1", "bmp"))
        # the double-scaled series solve in their memo functions, so those
        # memos start empty
        onecut._scaled.cache_clear()
        twocut._symmetric.cache_clear()
        K, step, solve = {
            "one-cut": (3, 2, lambda K: _RegularEngine(quartic).run(K)),
            "two-cut": (1, 2, lambda K: _TwoCutRegularEngine(merging).run(K)),
            "scaled": (3, 2, lambda K: scaled_series(bmp, find_critical(bmp)[0], K)),
            "merged": (4, 1, lambda K: symmetric_scaled_series(merging, find_merging(merging)[0], K)),
        }[regime]
        queries = self.checked(monkeypatch, step * K)
        solve(K)
        # each order k is queried on k entries (before its solve) and on k + 1 (after)
        for k in range(1, K + 1):
            assert (k, step * k) in queries and (k + 1, step * k) in queries

    @pytest.mark.parametrize("regime", ["one-cut", "two-cut"])
    def test_even_products_equal_the_full_convolution(self, monkeypatch, regime):
        # at step 2, Q_q = (−1)^q·P_q, so an even (P·Q)_n is kept from half
        # its terms; each must equal the whole sum Σ_q P_q·Q_{n−q}
        made = []
        init = wring.Defect.__init__
        monkeypatch.setattr(wring.Defect, "__init__", lambda d, *args: made.append(d) or init(d, *args))
        engine, K = {
            "one-cut": (lambda: _RegularEngine(parse_potential("quartic:1,1")), 3),
            "two-cut": (lambda: _TwoCutRegularEngine(parse_potential("quartic:-2,1")), 1),
        }[regime]
        engine().run(K)
        even = 0
        for d in made:
            for q in range(len(d.prods)):
                p, r = d._sum(q)
                assert r == (p if q % 2 == 0 else p.scale(-1))
            for n in range(0, len(d.prods), 2):
                full = d.lat.zero
                for q in range(n + 1):
                    full = full + d._sum(q)[0] * d._sum(n - q)[1]
                assert d.prods[n] == full, n
                even += 1
        assert even >= 4  # n = 0 and some even n > 0 on every engine

    def test_missing_entries_count_as_zero(self):
        # an ε^n beyond the entries given: the Lattice.defect of the padded series
        eng = _RegularEngine(parse_potential("quartic:1,1"))
        lat = eng.lat
        x, a = [eng.u0], [eng.rho]
        defect = wring.Defect(lat, x, x, a, 2)
        u = padded(lat, x, 5, 2)
        ref = lat.defect(u, u, padded(lat, [lat.embed(eng.rho)], 5, 2))
        assert all(defect.coefficient(n) == ref.coefficient(n) for n in (5, 3, 0, 4, 1, 2))


small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
polys = st.lists(small, max_size=7)


class TestTaylorShift:
    @given(p=polys, x=small, at=small)
    @settings(max_examples=25, deadline=None)
    def test_shift_is_composition(self, p, x, at):
        # a(ν + x) at ν = λ - x is a(λ)
        assert Poly(_pshift(p, x))(at - x) == Poly(p)(at)

    @given(
        p=polys,
        a=small,
        b=small,
        t=st.integers(min_value=0, max_value=4),
        s=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_principal_part_leaves_a_regular_remainder(self, p, a, b, t, s):
        # P/((λ-a)^t (λ-b)^s) - Σ_j c_j/(λ-a)^j is regular at a exactly when
        # P - Σ_j c_j (λ-a)^{t-j} (λ-b)^s is divisible by (λ-a)^t
        if a == b:
            return
        cs = _principal_part(p, a, b, t, s, F(0))
        assert len(cs) == t
        at_a, at_b = Poly((-a, 1)), Poly((-b, 1))
        rest = Poly(p)
        for j, c in enumerate(cs, start=1):
            rest = rest - at_a ** (t - j) * at_b**s * c
        assert rest.divmod(at_a**t)[1].is_zero()

    def test_principal_part_keeps_the_ring_of_zero(self):
        # the shifted product pads with Fraction zeros; entries must not
        # r/(λ²(λ-2)²) = r/4·(1/λ² + 1/λ) + (regular at 0), so c_3 is a zero
        r = DiffPoly.var("r1")
        cs = _principal_part([F(0), r], F(0), F(2), 3, 2, DiffPoly.zero())
        assert all(isinstance(c, DiffPoly) for c in cs)
        assert cs == [r * F(1, 4), r * F(1, 4), DiffPoly.zero()]
