"""One-cut expansions: regular r_k series, pole tables, critical points,
and the double-scaled ladder through the Painlevé relation."""

import json
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen.diffpoly import DiffPoly, XRelation
from largen import onecut
from largen.errors import CriticalPointHit, Mismatch, NoAdmissibleRoot
from largen.onecut import (
    OneCutCritical,
    _pole_basis,
    expand_regular,
    find_critical,
    scaled_series,
    u_series_coefficients,
)
from largen.phase import solve_one_cut
from largen.polys import Poly, RationalFunc
from largen.potential import Potential, parse_potential
from largen.structured import c_weight
from largen.twocut import find_merging
from largen.wring import WElem

GAUSS = Potential.gaussian()
BMP = Potential.bmp()
QUARTIC = parse_potential("quartic:1,1")
MERGING = parse_potential("quartic:-2,1")
SEXTIC = parse_potential("sextic:42,-11,1")

RHO = RationalFunc.var()
DATA = Path(__file__).parent / "data"


def quartic_r1(g2: int, g4: int) -> RationalFunc:
    # r1 = 6 g4² ρ / (12 g4 ρ + g2)⁴
    return RationalFunc(Poly((0, 6 * g4 * g4))) / RationalFunc(Poly((g2, 12 * g4))) ** 4


class TestLadderWeights:
    def test_order_zero_is_hodograph(self):
        W = QUARTIC.hodograph()
        assert c_weight(W, 0) == W

    def test_order_one_is_half_derivative(self):
        W = BMP.hodograph()
        assert c_weight(W, 1) * F(2) == W.derivative()

    def test_double_factorial_scaling(self):
        # c_2 = W''/(2²·3!!), c_3 = W'''/(2³·5!!)
        W = SEXTIC.hodograph()
        assert c_weight(W, 2) == W.derivative(2) * F(1, 12)
        assert c_weight(W, 3) == W.derivative(3) * F(1, 120)


class TestExpandRegular:
    def test_gaussian_corrections_vanish(self):
        exp = expand_regular(GAUSS, F(1), 3)
        assert exp.r0 == F(1, 2)
        assert exp.values() == [F(1, 2), 0, 0, 0]

    def test_quartic_r1_closed_form(self):
        exp = expand_regular(QUARTIC, F(2), 1)
        assert exp.coeffs[1] == quartic_r1(1, 1)

    def test_bmp_r1_closed_form(self):
        # r1 = ρ / (64800 (ρ-1)⁶)
        exp = expand_regular(BMP, F(120), 1)
        expect = RHO / (RationalFunc(Poly((-1, 1))) ** 6 * F(64800))
        assert exp.coeffs[1] == expect
        assert exp.values()[1] == F(1, 32400)

    def test_irrational_branch_matches_closed_form(self):
        exp = expand_regular(BMP, F(61), 1, digits=40)
        vals = exp.values(40)
        with mpmath.workdps(50):
            r0 = 1 + mpmath.cbrt(mpmath.mpf(61) / 60 - 1)
            r1 = r0 / (64800 * (r0 - 1) ** 6)
            assert abs(vals[0] - r0) < mpmath.mpf(10) ** -35
            assert abs(vals[1] - r1) < mpmath.mpf(10) ** -35

    def test_critical_temperature_refuses(self):
        with pytest.raises(CriticalPointHit):
            expand_regular(SEXTIC, F(3724, 225), 1)

    def test_two_cut_phase_refuses(self):
        with pytest.raises(NoAdmissibleRoot):
            expand_regular(MERGING, F(1, 2), 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            expand_regular(GAUSS, F(1), -1)

    def test_json_round_trip(self):
        exp = expand_regular(BMP, F(120), 2)
        doc = exp.to_json()
        assert set(doc) == {"r0", "coeffs", "eval"}
        assert doc["r0"] == "2"
        assert doc["eval"]["T"] == "120"
        assert [F(v) for v in doc["eval"]["values"]] == exp.values()

    def test_quartic_k3_json_pinned(self):
        # frozen to_json; the benchmark's goldens stop at K = 2
        doc = expand_regular(QUARTIC, F(2), 3).to_json()
        want = (DATA / "expand_regular_quartic_1_1_T2_K3.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_quartic_k4_json_pinned(self):
        # frozen from the engine that rebuilt the whole defect at every order
        doc = expand_regular(QUARTIC, F(2), 4).to_json()
        want = (DATA / "expand_regular_quartic_1_1_T2_K4.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_sextic_k5_json_pinned(self):
        # W' of a sextic is quadratic, so every r_k is reduced by a gcd of
        # degree > 1; frozen from the Euclidean gcd over fractions
        doc = expand_regular(SEXTIC, F(1), 5).to_json()
        want = (DATA / "expand_regular_sextic_42_-11_1_T1_K5.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_second_split_sextic_k4_json_pinned(self):
        # W' = 24(3ρ - 2)(5ρ - 1) splits into two linear factors, as
        # sextic:42,-11,1's does; frozen before the ring localised at them
        doc = expand_regular(parse_potential("sextic:24,-13,2"), F(1, 4), 4).to_json()
        want = (DATA / "expand_regular_sextic_24_-13_2_T1_4_K4.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    @given(
        g2=st.integers(min_value=1, max_value=6),
        g4=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_quartic_family_r1(self, g2, g4):
        orders = u_series_coefficients(parse_potential(f"quartic:{g2},{g4}"), K=1)
        assert orders[1].poles[0] == quartic_r1(g2, g4) * F(2)


ONE_CUT_RUN = 'onecut._RegularEngine(parse_potential("quartic:1,1")).run(2)'
TWO_CUT_RUN = 'twocut._TwoCutRegularEngine(parse_potential("quartic:-2,1")).run(1)'
SCALED_RUN = 'onecut.scaled_series(g := parse_potential("bmp"), onecut.find_critical(g)[0], 3)'
SYMMETRIC_RUN = (
    'twocut.symmetric_scaled_series(g := parse_potential("quartic:-2,1"),'
    " twocut.find_merging(g)[0], 3)"
)

# name -> (patched class, method, replacement, engine call, the certificate
# that must catch it).  The residual re-check holds for whatever derivation
# the ring implements, so a broken d/dT is caught by the closed form of r₁
# (one cut) or by the quotient rule (two cuts), and a broken d/dx of the
# double-scaled engines by Poly.derivative on a probe.  A solved r_k or a_k
# that reaches the identity perturbed (every embedded coefficient with a
# nonzero W'- or det-exponent, shifted by 1) fails its own order's residual,
# and so does a DiffPoly sum with one numerator off (only sums that carry
# r₁, so the d/dx probe is untouched).  Both engines run on the one shared ring, ``mpolys._Loc``.
CORRUPTIONS = {
    "d_dT-without-W''-term": (
        "onecut._Loc",
        "diff",
        "lambda self, k: W(self.fs, self.num.diff(k) * self.fs[0][0], (self.e[0] + 1,))",
        ONE_CUT_RUN,
        "r₁ differs",
    ),
    "sub-without-lifting": (
        "onecut._Loc",
        "__sub__",
        "lambda self, o: W(self.fs, self.num - self._coerce(o).num,"
        " tuple(map(max, self.e, self._coerce(o).e)))",
        ONE_CUT_RUN,
        "defect at ε^2",
    ),
    "mul-dropping-exponent": (
        "onecut._Loc",
        "__mul__",
        "lambda self, o: W(self.fs, self.num * getattr(o, 'num', o), self.e)",
        ONE_CUT_RUN,
        "odd defect order",
    ),
    "two-cut-add-without-lifting": (
        "twocut._Loc",
        "__add__",
        "lambda self, o: W(self.fs, self.num + self._coerce(o).num,"
        " tuple(map(max, self.e, self._coerce(o).e)))",
        TWO_CUT_RUN,
        "string equation for V₀",
    ),
    "two-cut-diff-without-det-term": (
        "twocut._Loc",
        "diff",
        "lambda self, k: W(self.fs, self.num.diff(k) * self.fs[0][0]"
        " * self.fs[0][1] - self.num * (self.fs[0][1].diff(k) * self.fs[0][0]) * self.e[1],"
        " (self.e[0] + 1, self.e[1] + 1))",
        TWO_CUT_RUN,
        "two-cut derivation differs from the quotient rule",
    ),
    "two-cut-neg-dropping-sign": (
        "twocut._Loc",
        "__neg__",
        "lambda self: W(self.fs, self.num if self.e[0] >= 2 else -self.num, self.e,"
        " trials=())",
        TWO_CUT_RUN,
        "solvability: the V-residual at order 1",
    ),
    "perturbed-r_k": (
        "onecut.Lattice",
        "embed",
        "lambda self, c, f=W.embed: f(self, c + 1 if getattr(c, 'e', (0,))[0] else c)",
        ONE_CUT_RUN,
        "defect at ε^2",
    ),
    "two-cut-perturbed-a_k": (
        "twocut.Lattice",
        "embed",
        "lambda self, c, f=W.embed: f(self, c + 1 if getattr(c, 'e', (0,))[0] else c)",
        TWO_CUT_RUN,
        "V-defect at ε^2",
    ),
    "d_dx-without-exponent-factor": (
        "onecut.DiffPoly",
        "d_dx",
        "lambda self, times=1: self if not times else W.d_dx(sum((W({m: c / e}).partial(n, o)"
        " * W.var(n, o + 1) for m, c in self.terms.items() for n, o, e in m), W.zero()),"
        " times - 1)",
        SCALED_RUN,
        "d/dx of the double-scaled engine differs",
    ),
    "diffpoly-add-perturbing-a-numerator": (
        "onecut.DiffPoly",
        "__add__",
        "lambda self, o, f=W.__add__: (lambda s: f(s, W._trusted(s.den, {next(iter(s.nums)): 1}))"
        " if 'r1' in s.dependent_vars() else s)(f(self, o))",
        SCALED_RUN,
        "scaled defect at ε^2",
    ),
    "d_dx-doubling-every-term": (
        "onecut.DiffPoly",
        "d_dx",
        "lambda self, times=1, f=W.d_dx: f(self, times) * 2",
        SYMMETRIC_RUN,
        "d/dx of the double-scaled engine differs",
    ),
    # sextic:42,-11,1 localises at W' = 12(15ρ - 7)(ρ - 1): one of its
    # linear factors moved off its root
    "W'-factor-off-its-root": (
        "onecut",
        "rational_roots",
        "lambda p, f=W.rational_roots: [(r + 1, m) if i == 0 else (r, m)"
        " for i, (r, m) in enumerate(f(p))]",
        'onecut._RegularEngine(parse_potential("sextic:42,-11,1")).run(1)',
        "the factors of W' do not multiply back to W'",
    ),
}


class TestCertificatesUnderO:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corrupted_ring_raises_mismatch(self, name, run_under_O):
        ring, attr, body, run, certificate = CORRUPTIONS[name]
        out = run_under_O(
            f"""
            assert False, "python -O should have stripped this"
            from largen import onecut, twocut
            from largen.errors import Mismatch
            from largen.potential import parse_potential
            W = {ring}
            W.{attr} = {body}
            try:
                {run}
            except Mismatch as exc:
                print("Mismatch:", exc)
            """
        )
        assert out.startswith(f"Mismatch: {certificate}"), out

    def test_derivation_corrupted_after_the_first_engine(self, run_under_O):
        # the d/dx certificate keeps its reference once per process: a d_dx
        # changed between two engines must still be seen by the second one
        out = run_under_O(
            f"""
            assert False, "python -O should have stripped this"
            from largen import onecut, twocut
            from largen.diffpoly import DiffPoly
            from largen.errors import Mismatch
            from largen.potential import parse_potential
            {SCALED_RUN}
            d_dx = DiffPoly.d_dx
            DiffPoly.d_dx = lambda self, times=1: d_dx(self, times) * 2
            try:
                {SYMMETRIC_RUN}
            except Mismatch as exc:
                print("Mismatch:", exc)
            """
        )
        assert out.startswith("Mismatch: d/dx of the double-scaled engine differs"), out


class TestUSeriesTable:
    def test_first_order_poles_quartic(self):
        orders = u_series_coefficients(QUARTIC, K=1)
        wp = RationalFunc(QUARTIC.hodograph().derivative())
        r0p = RationalFunc.const(1) / wp          # dr0/dT
        r0pp = r0p.derivative() / wp
        assert orders[1].poles[0] == quartic_r1(1, 1) * F(2)   # U_{1,1} = 2 r1
        assert orders[1].poles[1] == RHO * r0pp * F(2)         # U_{1,2} = 2 ρ r0''
        assert orders[1].poles[2] == RHO * r0p**2 * F(10)      # U_{1,3} = 10 ρ (r0')²

    def test_gaussian_single_pole(self):
        # r1 = 0 and r0'' = 0 leave only U_{1,3} = 10·ρ·(1/2)² = 5ρ/2
        orders = u_series_coefficients(GAUSS, K=1)
        assert orders[1].poles[0].is_zero()
        assert orders[1].poles[1].is_zero()
        assert orders[1].poles[2] == RationalFunc(Poly((0, F(5, 2))))

    def test_leading_pole_is_twice_rk(self):
        exp = expand_regular(QUARTIC, F(2), 3)
        orders = u_series_coefficients(QUARTIC, K=3)
        for k in (2, 3):
            assert orders[k].poles[0] == exp.coeffs[k] * F(2)

    def test_evaluated_table(self):
        orders = u_series_coefficients(BMP, r0=F(2), K=1)
        assert orders[1].poles[0] == F(1, 16200)  # 2·r1(2)

    def test_mpf_point_evaluates_at_default_digits(self):
        # an mpf r0 is evaluated at DEFAULT_DIGITS, not at the caller's
        # ambient 15 digits
        r0 = solve_one_cut(QUARTIC, F(1), 40)
        got = u_series_coefficients(QUARTIC, r0=r0, K=2)
        with mpmath.workdps(40):
            for order, symbolic in zip(got, u_series_coefficients(QUARTIC, K=2)):
                for value, pole in zip(order.poles, symbolic.poles):
                    want = pole(r0)
                    assert abs(value - want) <= mpmath.mpf(10) ** -25 * abs(want)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            u_series_coefficients(QUARTIC, K=-1)

    def test_pole_helper_bounds(self):
        orders = u_series_coefficients(QUARTIC, K=1)
        assert orders[1].pole(3) == orders[1].poles[2]
        assert orders[1].pole(7).is_zero()

    def test_pole_past_the_table_is_a_zero_of_its_kind(self):
        symbolic = u_series_coefficients(QUARTIC, K=2)
        evaluated = u_series_coefficients(QUARTIC, r0=F(1, 3), K=2)
        for s, e in zip(symbolic, evaluated):
            past = len(s.poles) + 1
            assert isinstance(s.pole(past), RationalFunc) and s.pole(past).is_zero()
            assert type(e.pole(past)) is F and e.pole(past) == 0
        assert all(type(p) is F for p in evaluated[2].poles)

    def test_tables_json_pinned(self):
        # every pole and element slot of quartic:1,1 through K = 3, and the
        # bmp table evaluated at r0 = 2
        def render(c):
            return c.render("r0") if isinstance(c, RationalFunc) else str(c)

        doc = {
            "quartic:1,1": [
                {
                    "poles": [render(p) for p in o.poles],
                    "branch": [render(o.element.d1), render(o.element.d0)],
                    "slots": {
                        str(j): [render(c) for c in cs]
                        for j, cs in sorted(o.element.slots.items())
                    },
                }
                for o in u_series_coefficients(QUARTIC, K=3)
            ],
            "bmp:r0=2": [
                [str(p) for p in o.poles] for o in u_series_coefficients(BMP, r0=F(2), K=1)
            ],
        }
        want = (DATA / "u_series_quartic_1_1_K3.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    @pytest.mark.parametrize("K", [1, 2])
    def test_expand_regular_reduces_only_its_output(self, K, monkeypatch):
        # the engine stays in ℚ[ρ, 1/W'(ρ)]: a fresh solve builds one
        # RationalFunc per r_0..r_K, and the memo serves a second call at the
        # same K without building any
        onecut._regular.cache_clear()
        built = []
        init = RationalFunc.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(RationalFunc, "__init__", counting)
        exp = expand_regular(QUARTIC, F(2), K)
        assert len(built) == K + 1
        assert [id(c) for c in exp.coeffs] == [id(c) for c in built]
        again = expand_regular(QUARTIC, F(2), K)
        assert len(built) == K + 1
        assert [id(c) for c in again.coeffs] == [id(c) for c in built]


class TestPoleShapeCertificates:
    # one-cut curve at r_c = 1: w² = λ(λ - 4)
    D1, D0 = F(-4), F(0)

    def test_pole_at_zero_refused(self):
        # 1/w = U₀/λ
        e = WElem.from_poly(self.D1, self.D0, [F(1)], wpow=1)
        with pytest.raises(Mismatch, match="pole at λ = 0"):
            _pole_basis(e, F(4), F(0))

    def test_polynomial_part_refused(self):
        # λ²/w = U₀·λ
        e = WElem.from_poly(self.D1, self.D0, [F(0), F(0), F(1)], wpow=1)
        with pytest.raises(Mismatch, match="outside the U₀-pole basis"):
            _pole_basis(e, F(4), F(0))

    def test_table_entries_stay_in_the_ring_of_zero(self):
        # U₀·(3 + 2/(λ-4)²): the j = 1 entry is a padded zero
        u0 = WElem.from_poly(self.D1, self.D0, [F(0), F(1)], wpow=1)
        e = u0.scale(F(3)) + u0.div_linear_root(F(4)).div_linear_root(F(4)).scale(F(2))
        c, poles = _pole_basis(e, F(4), DiffPoly.zero())
        assert (c, poles) == (DiffPoly.const(3), [DiffPoly.zero(), DiffPoly.const(2)])
        assert all(isinstance(p, DiffPoly) for p in poles)


class TestFindCritical:
    def test_bmp_point(self):
        crits = find_critical(BMP)
        assert len(crits) == 1
        c = crits[0]
        assert (c.r_c, c.T_c, c.m, c.c_m) == (F(1), F(60), 3, F(3))

    def test_gaussian_has_none(self):
        assert find_critical(GAUSS) == ()

    def test_positive_quartic_has_none(self):
        assert find_critical(QUARTIC) == ()

    def test_merging_quartic_has_none(self):
        # its singular point lies at negative temperature
        assert find_critical(MERGING) == ()

    def test_synthetic_sextic_single_point(self):
        crits = find_critical(SEXTIC)
        assert len(crits) == 1
        c = crits[0]
        assert (c.r_c, c.T_c, c.m, c.c_m) == (F(7, 15), F(3724, 225), 2, F(-8))

    def test_sextic_interior_minimum_rejected(self):
        # W(r) = 12 also has the double root r = 1, but no density-positive
        # branch borders it
        assert all(c.r_c != 1 for c in find_critical(SEXTIC))

    def test_irrational_pair_keeps_local_max_only(self):
        crits = find_critical(parse_potential("sextic:3,-3,1"))
        assert len(crits) == 1
        c = crits[0]
        assert c.m == 2
        # r_c = (6 - √6)/30, c_2 = W''(r_c)/12 = -√6
        with mpmath.workdps(30):
            assert abs(c.r_c - (6 - mpmath.sqrt(6)) / 30) < mpmath.mpf(10) ** -20
            assert abs(c.c_m + mpmath.sqrt(6)) < mpmath.mpf(10) ** -20


def scaled_goldens(rc):
    r1, r2 = DiffPoly.var("r1"), DiffPoly.var("r2")
    u22 = 6 * r1 * r1 + 2 * rc * r1.d_dx(2)
    u32 = (
        12 * r1 * r2
        + 2 * r1 * r1.d_dx(2)
        + 2 * rc * r2.d_dx(2)
        + F(1, 6) * rc * r1.d_dx(4)
    )
    u33 = (
        20 * r1**3
        + 10 * rc * r1.d_dx() ** 2
        + 20 * rc * r1 * r1.d_dx(2)
        + 2 * rc * rc * r1.d_dx(4)
    )
    return u22, u32, u33


class TestScaledSeries:
    @pytest.mark.parametrize("g", [BMP, SEXTIC], ids=["bmp", "sextic"])
    def test_paper_pole_table(self, g):
        crit = find_critical(g)[0]
        sc = scaled_series(g, crit, K=max(3, crit.m))
        u22, u32, u33 = scaled_goldens(crit.r_c)
        assert sc.orders[2].poles[1] == u22
        assert sc.orders[3].poles[1] == u32
        assert sc.orders[3].poles[2] == u33

    def test_bmp_k4_documents_pinned(self):
        # frozen ladder and pole documents of the double-scaled engine
        sc = scaled_series(BMP, find_critical(BMP)[0], K=4)
        doc = {
            "ladder": [rel.to_json() for rel in sc.ladder],
            "poles": [[p.to_json() for p in o.poles] for o in sc.orders],
        }
        want = (DATA / "scaled_series_bmp_K4.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_bmp_k6_documents_pinned(self):
        # frozen from the engine that rebuilt the whole defect at every order
        sc = scaled_series(BMP, find_critical(BMP)[0], K=6)
        doc = {
            "ladder": [rel.to_json() for rel in sc.ladder],
            "poles": [[p.to_json() for p in o.poles] for o in sc.orders],
        }
        want = (DATA / "scaled_series_bmp_K6.json").read_text(encoding="utf-8")
        assert json.dumps(doc, ensure_ascii=False) == want.strip()

    def test_leading_poles_are_twice_rk(self):
        crit = find_critical(BMP)[0]
        sc = scaled_series(BMP, crit, K=4)
        for k in range(1, 5):
            assert sc.orders[k].poles[0] == 2 * DiffPoly.var(f"r{k}")

    def test_pole_depth_bounded_by_order(self):
        crit = find_critical(SEXTIC)[0]
        sc = scaled_series(SEXTIC, crit, K=4)
        for k in range(1, 5):
            assert len(sc.orders[k].poles) <= k

    def test_diagonal_depends_only_on_r1(self):
        crit = find_critical(BMP)[0]
        sc = scaled_series(BMP, crit, K=5)
        for k in range(1, 6):
            assert sc.orders[k].poles[k - 1].dependent_vars() == {"r1"}

    def test_gelfand_dikii_diagonal_recursion(self):
        # ∂x U^{[k+1,k+1]} = (r_c ∂³ + 4 𝔯₁ ∂ + 2 𝔯₁') U^{[k,k]}
        crit = find_critical(BMP)[0]
        sc = scaled_series(BMP, crit, K=5)
        r1 = DiffPoly.var("r1")
        rc = crit.r_c
        for k in range(1, 5):
            ukk = sc.orders[k].poles[k - 1]
            lhs = sc.orders[k + 1].poles[k].d_dx()
            rhs = rc * ukk.d_dx(3) + 4 * r1 * ukk.d_dx() + 2 * r1.d_dx() * ukk
            assert lhs == rhs

    def test_ladder_below_critical_order_is_trivial(self):
        crit = find_critical(BMP)[0]
        sc = scaled_series(BMP, crit, K=4)
        for k in range(crit.m):
            assert sc.ladder[k].p.is_zero()
            assert sc.ladder[k].q.is_zero()

    def test_bmp_painleve_relation(self):
        # 3·U^{[3,3]} = x at r_c = 1, i.e. 6u'''' + 60uu'' + 30(u')² + 60u³ = x
        crit = find_critical(BMP)[0]
        rel = scaled_series(BMP, crit, K=3).painleve_relation().normalize()
        u = DiffPoly.var("r1")
        p = (
            6 * u.d_dx(4)
            + 60 * u * u.d_dx(2)
            + 30 * u.d_dx() ** 2
            + 60 * u**3
        )
        assert rel == XRelation(p, DiffPoly.const(-1))

    def test_sextic_painleve_relation(self):
        # c_2 (6u² + 2 r_c u'') = x with c_2 = -8, r_c = 7/15
        crit = find_critical(SEXTIC)[0]
        rel = scaled_series(SEXTIC, crit, K=2).painleve_relation().normalize()
        u = DiffPoly.var("r1")
        assert rel == XRelation(
            112 * u.d_dx(2) + 720 * u**2, DiffPoly.const(15)
        )

    def test_truncation_must_reach_critical_order(self):
        crit = find_critical(BMP)[0]
        with pytest.raises(ValueError):
            scaled_series(BMP, crit, K=2)

    def test_irrational_point_rejected(self):
        crit = find_critical(parse_potential("sextic:3,-3,1"))[0]
        with pytest.raises(ValueError):
            scaled_series(parse_potential("sextic:3,-3,1"), crit, K=2)

    @pytest.mark.parametrize("name", ["quartic:-2,1", "sextic:-6,-3,1"])
    def test_merging_point_refused(self, name):
        # a MergingPoint duck-types as a critical point; it once gave a wrong
        # relation (quartic) or a misleading Mismatch (sextic)
        g = parse_potential(name)
        point, before = find_merging(g)[0], onecut._scaled.cache_info()
        with pytest.raises(TypeError, match="symmetric_scaled_series"):
            scaled_series(g, point, 3)
        assert onecut._scaled.cache_info() == before  # refused before the memo

    def test_handmade_critical_point_consistency(self):
        # a fabricated point off the hodograph fails the order-0 ladder check
        fake = OneCutCritical(r_c=F(1), T_c=F(59), m=3, c_m=F(3))
        with pytest.raises(Mismatch, match="order-0 string"):
            scaled_series(BMP, fake, K=3)
