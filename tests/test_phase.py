"""Phase classification, h-polynomial, density, endpoint solving."""

import json
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from largen import errors, phase, roots
from largen.errors import (
    NoAdmissibleRoot,
    NoTwoCutSolution,
    OutsideSupport,
    SingularHodograph,
    Unclassifiable,
)
from largen.phase import (
    classify_phase,
    compute_h,
    density,
    phase_scan,
    solve_one_cut,
    solve_two_cut,
)
from largen.mpolys import MPoly, eval_terms
from largen.polys import Poly
from largen.potential import Potential, parse_potential
from largen.roots import real_roots
from largen.scalars import is_exact, lifted, mpf_of, negligible, rationalize, scalar_str
from largen.structured import branch_curve, branch_resultant, twocut_hodographs
from largen.twocut import expand_two_cut_regular

QUARTIC = parse_potential("quartic:-2,1")
BMP = Potential.bmp()
GAUSS = Potential.gaussian()
SEXTIC = parse_potential("sextic:42,-11,1")
MERGE2 = parse_potential("sextic:-6,-3,1")
OUT_OF_ORDER = "no solution with a₀ > b₀ > 0"
NEWTON_PIN = json.loads(
    (Path(__file__).parent / "data" / "solve_two_cut_newton_d30.json").read_text()
)


def pin_id(case):
    return f"{case['potential']}:T={case['T']}"


class TestSolveOneCut:
    def test_gaussian(self):
        assert solve_one_cut(GAUSS, F(1)) == F(1, 2)

    def test_bmp_t120(self):
        assert solve_one_cut(BMP, F(120)) == F(2)

    def test_quartic_closed_form(self):
        # r0 = (sqrt(g2²+12·T·g4) − g2)/(12·g4) for g2=1, g4=1, T=11/12
        g = parse_potential("quartic:1,1")
        # 1 + 12·(11/12) = 12... pick T so the square root is rational: T = 4/3 → disc 17? use T=2: disc 25
        r0 = solve_one_cut(g, F(2))
        assert r0 == (F(5) - 1) / 12

    def test_inadmissible_below_merging(self):
        # quartic (−2,1) below T_c=1: one-cut root exists but density dips negative
        with pytest.raises(NoAdmissibleRoot):
            solve_one_cut(QUARTIC, F(1, 2))

    def test_multi_root_selection(self):
        # hodograph with local max/min: smallest admissible root is the
        # branch continuous from T → 0⁺
        r0 = solve_one_cut(SEXTIC, F(13))
        assert 0 < r0 and r0 < 7.0 / 15.0


class TestSolveTwoCut:
    def test_exact_rational_point(self):
        assert solve_two_cut(QUARTIC, F(3, 4)) == (F(3, 4), F(1, 4))

    def test_sum_is_temperature_independent(self):
        # a0 + b0 = −g2/(2·g4) regardless of T
        for T in (F(1, 4), F(1, 2), F(3, 4)):
            a0, b0 = solve_two_cut(QUARTIC, T)
            assert abs(float(a0) + float(b0) - 1.0) < 1e-12

    def test_ordering(self):
        a0, b0 = solve_two_cut(QUARTIC, F(1, 2))
        assert a0 > b0 > 0

    def test_one_cut_region_rejected(self):
        with pytest.raises(NoTwoCutSolution):
            solve_two_cut(QUARTIC, F(2))

    def test_collapse_approaching_merging(self):
        eps = F(1, 10**6)
        a0, b0 = solve_two_cut(QUARTIC, 1 - eps)
        # disc = 4e-6 has a rational square root: both endpoints exact
        assert a0 == F(1, 2) + F(1, 2000)
        assert b0 == F(1, 2) - F(1, 2000)


class TestTwoCutNewton:
    """Non-quartic two-cut points against ``solve_two_cut_newton_d30.json``:
    written at 30 digits by the damped Newton that solved them before the
    exact elimination.  ``sextic:-6,-3,1`` at T = 12, its merging double root,
    is left out: the Newton reached it only to about 1e-8, so its digits
    would pin noise (``TestTwoCutElimination`` covers it).  The pinned
    refusals keep their error class; their messages were the Newton's, and
    the elimination names its reason instead."""

    @pytest.mark.parametrize("case", NEWTON_PIN["solved"], ids=pin_id)
    def test_endpoints_match_pin(self, case):
        g = parse_potential(case["potential"])
        a0, b0 = solve_two_cut(g, F(case["T"]), NEWTON_PIN["digits"])
        with mpmath.workdps(40):
            for got, want in ((a0, case["a0"]), (b0, case["b0"])):
                want = mpmath.mpf(want)
                assert abs(got - want) <= mpmath.mpf(10) ** -29 * abs(want)

    @pytest.mark.parametrize("case", NEWTON_PIN["solved"], ids=pin_id)
    def test_endpoints_solve_the_two_cut_hodographs(self, case):
        # both string equations of the two-cut engine, of which the
        # elimination uses only W_a and the branch curve
        g = parse_potential(case["potential"])
        T = F(case["T"])
        a0, b0 = solve_two_cut(g, T, NEWTON_PIN["digits"])
        with mpmath.workdps(60):
            for W in twocut_hodographs(g.gs):
                assert abs(W.eval((a0, b0)) - T) < mpmath.mpf(10) ** -25

    @pytest.mark.parametrize("case", NEWTON_PIN["refused"], ids=pin_id)
    def test_no_solution_refusals_match_pin(self, case):
        g = parse_potential(case["potential"])
        with pytest.raises(getattr(errors, case["error"])) as info:
            solve_two_cut(g, F(case["T"]), NEWTON_PIN["digits"])
        assert type(info.value).__name__ == case["error"]
        assert str(info.value) == OUT_OF_ORDER


def resultant_at(g, T) -> Poly:
    """R(·, T) = Res_{a₀}(L, W_a − T) as a polynomial in b₀ over ℚ."""
    wa, wb = twocut_hodographs(g.gs)
    R = branch_resultant(branch_curve(wa, wb), wa)
    cs = [F(0)] * (max(e[0] for e in R.terms) + 1)
    for (k, j), c in R.terms.items():
        cs[k] += c * T**j
    return Poly(cs)


class TestTwoCutElimination:
    @pytest.mark.parametrize("T,pair", [(12, (-0.313, 2.866)), (21, (-0.459, 2.729))],
                             ids=["T=12", "T=21"])
    def test_real_solutions_out_of_order_are_refused(self, T, pair):
        # the only real roots of R form one mirror pair with b₀ < 0
        roots = real_roots(resultant_at(SEXTIC, F(T)), 30)
        assert tuple(round(float(r.value), 3) for r in roots) == pair
        with pytest.raises(NoTwoCutSolution, match="^no solution with a₀ > b₀ > 0$"):
            solve_two_cut(SEXTIC, F(T))

    def test_no_real_solution_is_its_own_reason(self):
        # W_a − W_b = 2(a₀ − b₀) for the Gaussian: L is a nonzero constant
        with pytest.raises(NoTwoCutSolution, match="^no real solution of W_a = T = W_b$"):
            solve_two_cut(GAUSS, F(1))

    def test_merging_double_root(self):
        # at T_c = 12 the branch curve meets the diagonal: b₀ = 1 is an exact
        # root of R, of multiplicity 4 (W_a − 12 vanishes to fourth order
        # along L = 0 there), and its only pair is a₀ = b₀ = 1
        roots = real_roots(resultant_at(MERGE2, F(12)), 30)
        assert [(r.value, r.multiplicity) for r in roots if r.exact] == [(F(1), 4)]
        with pytest.raises(NoTwoCutSolution, match="^no solution with a₀ > b₀ > 0$"):
            solve_two_cut(MERGE2, F(12))
        p = classify_phase(MERGE2, F(12))
        assert (p.s, p.status, p.endpoints, p.alternates) == (1, "critical", (F(0), F(4)), ())
        with pytest.raises(SingularHodograph, match="^the cuts merge at T = 12; "):
            expand_two_cut_regular(MERGE2, F(12), 1)

    @pytest.mark.parametrize("T", [6, 10], ids=["T=6", "T=10"])
    def test_mpf_temperature_matches_exact(self, T):
        exact = solve_two_cut(MERGE2, F(T), 30)
        with mpmath.workdps(30):
            numeric = solve_two_cut(MERGE2, mpmath.mpf(T), 30)
        assert all(isinstance(v, mpmath.mpf) for v in numeric)
        with mpmath.workdps(40):
            for got, want in zip(numeric, exact):
                assert abs(got - want) <= mpmath.mpf(10) ** -25 * abs(want)


class TestComputeH:
    def test_gaussian_constant(self):
        assert list(compute_h(GAUSS, (0, 2)).coeffs) == [F(2)]

    def test_quartic_one_cut_form(self):
        # h̃ = 4·g4·λ + 2·g2 + 8·g4·r0 with r0 = 1
        h = compute_h(QUARTIC, (0, 4))
        assert list(h.coeffs) == [F(4), F(4)]

    def test_endpoint_value_is_hodograph_slope(self):
        for g, r0 in [(QUARTIC, F(2)), (BMP, F(1, 3)), (SEXTIC, F(1, 7))]:
            h = compute_h(g, (0, 4 * r0))
            assert h(4 * r0) == g.hodograph().derivative()(r0)

    def test_bmp_critical_endpoint_zero(self):
        h = compute_h(BMP, (0, 4))
        assert h(F(4)) == 0  # W'(1) = 0
        # double zero: criticality of order 3
        assert h.derivative()(F(4)) == 0

    def test_two_cut_constant(self):
        # quartic two-cut: h̃ = 4·g4
        h = compute_h(QUARTIC, (F(1, 4), F(9, 4)))
        assert list(h.coeffs) == [F(4)]


class TestClassify:
    def test_quartic_below_critical(self):
        p = classify_phase(QUARTIC, F(1, 2))
        assert (p.s, p.status) == (2, "regular")
        assert p.a0 > p.b0 > 0

    def test_quartic_at_merging(self):
        p = classify_phase(QUARTIC, F(1))
        assert p.status == "critical"
        assert p.s == 1 and p.r0 == F(1, 2)

    def test_quartic_above_critical(self):
        p = classify_phase(QUARTIC, F(2))
        assert (p.s, p.status) == (1, "regular")

    def test_bmp_regular_below(self):
        p = classify_phase(BMP, F(30))
        assert (p.s, p.status) == (1, "regular")

    def test_bmp_critical(self):
        p = classify_phase(BMP, F(60))
        assert p.status == "critical" and p.r0 == F(1)

    def test_branch_critical_interior_maximum(self):
        p = classify_phase(SEXTIC, F(3724, 225))
        assert p.status == "critical" and p.r0 == F(7, 15)

    def test_support_splitting_beyond_two_cuts(self):
        with pytest.raises(Unclassifiable):
            classify_phase(SEXTIC, F(20))

    def test_gaussian_always_one_cut(self):
        for T in (F(1, 2), F(1), F(10)):
            p = classify_phase(GAUSS, T)
            assert (p.s, p.status) == (1, "regular")
            assert p.r0 == T / 2


class TestDensity:
    def test_semicircle(self):
        p = classify_phase(GAUSS, F(1))
        with mpmath.workdps(30):
            val = density(GAUSS, p, 0)
            assert abs(val - mpmath.sqrt(2) / mpmath.pi) < mpmath.mpf(10) ** -20

    def test_normalization_one_cut(self):
        p = classify_phase(GAUSS, F(1))
        with mpmath.workdps(30):
            alpha = mpmath.sqrt(mpmath.mpf(2))
            mass = mpmath.quad(lambda x: density(GAUSS, p, x), [-alpha, alpha])
            assert abs(mass - 1) < mpmath.mpf(10) ** -10

    def test_normalization_two_cut(self):
        p = classify_phase(QUARTIC, F(1, 2))
        with mpmath.workdps(30):
            a, b = (mpmath.sqrt(e) for e in p.endpoints)
            mass = 2 * mpmath.quad(lambda x: density(QUARTIC, p, x), [a, b])
            assert abs(mass - 1) < mpmath.mpf(10) ** -10

    def test_endpoint_vanishes(self):
        p = classify_phase(GAUSS, F(1))
        with mpmath.workdps(30):
            assert density(GAUSS, p, mpmath.sqrt(2)) == 0

    def test_positive_on_sample_grid(self):
        # strictness of the density inequality on ≥100 interior points
        for g, T in [(QUARTIC, F(2)), (BMP, F(30))]:
            p = classify_phase(g, T)
            with mpmath.workdps(25):
                alpha = mpmath.sqrt(p.endpoints[1])
                for k in range(1, 101):
                    x = -alpha + 2 * alpha * mpmath.mpf(k) / 102
                    assert density(g, p, x) > 0
        p = classify_phase(QUARTIC, F(1, 2))
        with mpmath.workdps(25):
            a, b = (mpmath.sqrt(e) for e in p.endpoints)
            for k in range(1, 101):
                x = a + (b - a) * mpmath.mpf(k) / 102
                assert density(QUARTIC, p, x) > 0

    def test_outside_support_raises(self):
        p = classify_phase(GAUSS, F(1))
        with pytest.raises(OutsideSupport):
            density(GAUSS, p, 2)
        p2 = classify_phase(QUARTIC, F(1, 2))
        with pytest.raises(OutsideSupport):
            density(QUARTIC, p2, 0)  # spectral gap

    def test_bmp_edge_exponent(self):
        # ρ(x) ~ (α - x)^{m - 1/2} with m = 3 at the third-order point:
        # local log-log slope 5/2 ± 0.1
        p = classify_phase(BMP, F(60))
        with mpmath.workdps(40):
            alpha = mpmath.sqrt(p.endpoints[1])
            d1 = density(BMP, p, alpha * (1 - mpmath.mpf(10) ** -6))
            d2 = density(BMP, p, alpha * (1 - mpmath.mpf(10) ** -8))
            slope = mpmath.log(d1 / d2) / mpmath.log(mpmath.mpf(100))
            assert abs(slope - mpmath.mpf(5) / 2) < mpmath.mpf("0.1")


class TestMergingContinuity:
    def test_closed_forms_meet(self):
        # one-cut r0 at T_c equals the collapsed two-cut endpoints exactly
        assert solve_one_cut(QUARTIC, F(1)) == F(1, 2)
        g2, g4 = QUARTIC.gs
        Tc = g2 * g2 / (4 * g4)
        assert Tc == 1
        # closed-form two-cut endpoints at T_c (discriminant zero)
        assert (-g2) / (4 * g4) == F(1, 2)


class TestScan:
    def test_quartic_sweep_statuses(self):
        rows = phase_scan(QUARTIC, [F(1, 2), F(1), F(2)])
        assert [r["s"] for r in rows] == [2, 1, 1]
        assert [r["status"] for r in rows] == ["regular", "critical", "regular"]

    def test_nonpositive_temperature_refused(self):
        for T in (F(0), F(-1), mpmath.mpf(-0.5)):
            with pytest.raises(ValueError, match="need T > 0"):
                classify_phase(QUARTIC, T)
        with pytest.raises(ValueError, match="need T > 0"):
            phase_scan(QUARTIC, [F(1), F(0)])
        for g, T in ((QUARTIC, F(0)), (QUARTIC, F(-1)), (MERGE2, F(-1))):
            for solve in (solve_two_cut, lambda g, T: expand_two_cut_regular(g, T, 1)):
                with pytest.raises(ValueError, match="need T > 0"):
                    solve(g, T)

    def test_invalid_row(self):
        rows = phase_scan(SEXTIC, [F(20)])
        assert rows[0]["status"] == "invalid" and rows[0]["s"] == 0
        # one key per coupling of sextic:42,-11,1, ahead of T
        assert list(rows[0])[:4] == ["g2", "g4", "g6", "T"]
        assert (rows[0]["g2"], rows[0]["g4"], rows[0]["g6"]) == (42, -11, 1)


class TestExactness:
    """Exact data stay exact through classification; irrational data go mpf."""

    def test_one_cut_rational_root(self):
        p = classify_phase(parse_potential("quartic:1,1"), F(2))
        assert p.r0 == F(1, 3) and isinstance(p.r0, F)
        assert p.endpoints == (F(0), F(4, 3))
        assert p.h.coeffs and all(isinstance(c, F) for c in p.h.coeffs)
        assert p.h_numeric == () and p.note == ""

    def test_two_cut_rational_endpoints(self):
        p = classify_phase(QUARTIC, F(3, 4))
        assert p.s == 2
        assert (p.a0, p.b0) == (F(3, 4), F(1, 4))
        assert all(isinstance(v, F) for v in (p.a0, p.b0))
        assert list(p.h.coeffs) == [F(4)] and p.h_numeric == ()

    def test_irrational_points_carry_h_numerically(self):
        one = classify_phase(parse_potential("quartic:1,1"), F(1))
        two = classify_phase(QUARTIC, F(1, 2))
        for p, point in ((one, (one.r0,)), (two, (two.a0, two.b0))):
            assert all(isinstance(v, mpmath.mpf) for v in point)
            assert p.h.degree < 0 and p.h_numeric
            assert all(isinstance(c, mpmath.mpf) for c in p.h_numeric)
            assert p.note == "h carried numerically"
            assert p.h_coeffs() == list(p.h_numeric)



# (potential, T, cuts) with T an mpf: the quartic closed form takes it like the Newton path
MPF_POINTS = [
    (name, mpmath.mpf(T), s)
    for name, cuts in (("quartic:1,1", (1, 1)), ("quartic:-2,1", (2, 1)),
                       ("quartic:-1,2", (1, 1)), ("quartic:-3,1", (2, 2)))
    for T, s in zip(("0.7", "1.3"), cuts)
]


class TestMpfTemperature:
    @pytest.mark.parametrize("name,T,s", MPF_POINTS, ids=[f"{p[0]}:T={p[1]}" for p in MPF_POINTS])
    def test_classifies(self, name, T, s):
        g = parse_potential(name)
        p = classify_phase(g, T)
        assert (p.s, p.status) == (s, "regular")
        with mpmath.workdps(30):
            if s == 1:
                assert abs(g.hodograph()(p.r0) - T) < mpmath.mpf(10) ** -12
            else:
                assert solve_two_cut(g, T) == (p.a0, p.b0)
                g2, g4 = (mpf_of(c, 30) for c in g.gs)
                disc = g2 * g2 - 4 * T * g4
                root = mpmath.sqrt(disc)
                a1 = -g4 * (g2 * g2 + 4 * T * g4 - g2 * root) / (2 * disc**2 * root)
                got = expand_two_cut_regular(g, T, 1).values(30)[1][0]
                assert abs(got - a1) < mpmath.mpf(10) ** -20 * abs(a1)
                if name == "quartic:-2,1":
                    assert mpmath.nstr(got, 8) == "-2.8498341"

    @pytest.mark.parametrize("name,T", [("bmp", 60), ("sextic:-6,-3,1", 12)])
    def test_multiple_root_classifies_as_its_fraction(self, name, T):
        # at a critical (bmp) or merging (sextic) temperature W(r₀) − T has a
        # double root; the mpf T is the binary rational it holds, so it is
        # isolated exactly, as the same temperature as a Fraction is
        g = parse_potential(name)
        p = classify_phase(g, mpmath.mpf(T), 30)
        assert p == classify_phase(g, F(T), 30) and isinstance(p.T, mpmath.mpf)
        assert (p.s, p.status, p.endpoints, p.r0) == (1, "critical", (0, 4), 1)

    def test_h_tilde_at_a_triple_root_exhausts_precision(self):
        # h̃ with mpf coefficients keeps the numeric root finder, which does
        # not converge at (λ − 1)³ (a double root still does)
        assert phase._HTilde([mpmath.mpf(c) for c in (1, -2, 1)], 30).roots == [1, 1]
        h = phase._HTilde([mpmath.mpf(c) for c in (-1, 3, -3, 1)], 30)
        with pytest.raises(errors.PrecisionExhausted, match="degree-3 .* 30 digits") as info:
            h.roots
        assert type(info.value.__cause__).__name__ == "NoConvergence"

@pytest.mark.xfail(raises=TypeError, strict=True)
@pytest.mark.parametrize("T", [F(6), F(9)], ids=["T=6", "T=9"])
def test_sextic_outside_inequality_radicand_rounds_negative(T):
    # Known defect: at x = β rounding leaves the radicand of w₁ in the
    # outside inequality slightly negative, mpmath.sqrt returns an mpc, and
    # comparing the running integral raises TypeError.  Clamping the radicand
    # at zero gives one-cut regular phases (r₀ ≈ 0.0814732486, 0.1334188186).
    classify_phase(SEXTIC, T)


@pytest.mark.xfail(raises=TypeError, strict=True)
def test_sextic_gap_inequality_radicand_rounds_negative():
    # The same defect in the gap inequality: the first pair is inadmissible,
    # and checking the second raises TypeError, as classify_phase does here.
    solve_two_cut(parse_potential("sextic:30,-12,1"), F(1))


# (potential, T): sextics whose first pair by a₀ is inadmissible, then points
# with a single candidate
CLASSIFIED = [("sextic:12,-8,1", 2), ("sextic:12,-8,1", 6), ("sextic:24,-13,2", 2),
              ("sextic:30,-12,1", 8), ("quartic:-2,1", F(1, 2)), ("quartic:1,1", 2),
              ("sextic:-6,-3,1", 6), ("sextic:-6,-3,1", 14), ("sextic:42,-11,1", 13)]


@pytest.mark.parametrize("name,T", CLASSIFIED, ids=[f"{n}:T={T}" for n, T in CLASSIFIED])
def test_solvers_take_the_classified_branch(name, T):
    g = parse_potential(name)
    p = classify_phase(g, F(T))
    if p.s == 1:
        assert solve_one_cut(g, F(T)) == p.r0
    else:
        assert solve_two_cut(g, F(T)) == (p.a0, p.b0)


# (potential, T, PhaseResult fields, numeric root sets of h̃ per verdict): the
# exact one-cut check at bmp's critical T = 60 finds h̃'s zero exactly and
# needs none
ONE_ROOT_SET = [
    ("sextic:-6,-3,1", 6, (2, "regular", "1.389544668567463194791389",
                           "3.674633103908448946018182"), [1, 1]),
    ("sextic:-6,-3,1", 14, (1, "regular", "0", "4.080860757505204332376188"), [1]),
    ("bmp", 60, (1, "critical", "0", "4"), [0]),
]


@pytest.mark.parametrize("name,T,want,per_verdict", ONE_ROOT_SET,
                         ids=[f"{c[0]}:T={c[1]}" for c in ONE_ROOT_SET])
def test_each_verdict_finds_the_roots_of_h_once(name, T, want, per_verdict, monkeypatch):
    calls, per = [], []
    numeric = mpmath.polyroots
    monkeypatch.setattr(mpmath, "polyroots",
                        lambda cs, **kw: calls.append(cs) or numeric(cs, **kw))
    verdict = phase._verdict

    def counted(*args):
        before = len(calls)
        try:
            return verdict(*args)
        finally:
            per.append(len(calls) - before)
    monkeypatch.setattr(phase, "_verdict", counted)
    p = classify_phase(parse_potential(name), F(T), 30)
    assert per == per_verdict
    assert (p.s, p.status, *(scalar_str(e, 25) for e in p.endpoints)) == want
    assert p.alternates == ()


# -- refinement on demand: the candidate searches against refine-everything --------


def reference_one_cut_candidates(g, T, digits):
    """``_one_cut_candidates`` as it was before refinement on demand: every
    root of W(r₀) = T, at the rational T holds, refined by ``real_roots``,
    then those > 0 kept."""
    roots = [r.value for r in real_roots(g.hodograph() - rationalize(T), digits)]
    return [r for r in roots if r > 0]


def reference_two_cut_candidates(g, T, digits):
    """``_two_cut_candidates`` as it was before refinement on demand: every
    real root of R(·, T) refined, and every pair x ≥ y of them tested."""
    if len(g.gs) == 2:
        return [phase._quartic_two_cut(g, T, digits)]
    W_a, L, R = phase._branch_elimination(g)
    solutions, T = [], rationalize(T)
    with mpmath.workdps(digits + 10):
        cs = [0] * (max(e[0] for e in R) + 1)
        for (k, j), c in R.items():
            cs[k] += c * T**j
        roots = [r.value for r in real_roots(Poly(cs), digits)]
        L_f, W_f, zero = L.lift(digits + 10), W_a.lift(digits + 10), mpmath.mpf(0)
        for i, x in enumerate(roots):
            for y in roots[: i + 1]:
                a0, b0, t = lifted((x, y, T), digits + 10)
                if is_exact(t):
                    residues = (L.eval((a0, b0)), W_a.eval((a0, b0)) - t)
                else:
                    residues = (eval_terms(L_f, (a0, b0), zero),
                                eval_terms(W_f, (a0, b0), zero) - t)
                if all(negligible(r, digits) for r in residues):
                    solutions.append((a0, b0))
    if not solutions:
        raise NoTwoCutSolution("no real solution of W_a = T = W_b")
    ordered = [(a0, b0) for a0, b0 in solutions if a0 > b0 > 0]
    if not ordered:
        raise NoTwoCutSolution("no solution with a₀ > b₀ > 0")
    return ordered


def _bits(search, *args):
    """A search's outcome to the bit: Fractions as they are, mpfs by ``_mpf_``,
    a refusal by its message."""
    try:
        found = search(*args)
    except NoTwoCutSolution as exc:
        return str(exc)
    return [tuple(v if isinstance(v, F) else v._mpf_ for v in (p if isinstance(p, tuple) else (p,)))
            for p in found]


# the phase workload's sextic grids, three sextics with several pairs across a
# T grid, a sextic whose one pair (2, 1) is rational, and mpf copies of integer
# temperatures: bmp's critical 60, the merging 12 with its fourfold root, and
# the rational pair
TWO_CUT_INPUTS = (
    [("sextic:42,-11,1", T) for T in (1, 3, 6, 9, 12, 15, 18, 21, 24)]
    + [("bmp", T) for T in (10, 30, 50, 60, 70, 90)]
    + [("sextic:-6,-3,1", T) for T in (2, 6, 10, 12, 14, 20)]
    + [(name, T) for name in ("sextic:12,-8,1", "sextic:24,-13,2", "sextic:30,-12,1")
       for T in (F(1, 4), 1, 2, 3, 6, 8)]
    + [("sextic:-15,-4,1", 40), ("sextic:9,-8,1", 8)]
    + [(name, mpmath.mpf(T)) for name, T in (("sextic:-6,-3,1", 6), ("sextic:-6,-3,1", 12),
                                             ("bmp", 60), ("sextic:42,-11,1", 3),
                                             ("sextic:-15,-4,1", 40))]
)
ONE_CUT_INPUTS = [(name, T) for name in ("gaussian", "quartic:-2,1", "quartic:1,1", "quartic:-1,2",
                                         "quartic:-3,1", "bmp", "sextic:42,-11,1",
                                         "sextic:-6,-3,1", "sextic:24,-13,2", "sextic:12,-8,1")
                  for T in (F(1, 4), 1, F(3, 2), 6, 60, mpmath.mpf(6), mpmath.mpf(60))]


def _potential(name):
    return Potential.gaussian() if name == "gaussian" else parse_potential(name)


@pytest.mark.parametrize("name,T", TWO_CUT_INPUTS, ids=[f"{n}:T={T}" for n, T in TWO_CUT_INPUTS])
def test_two_cut_candidates_match_refining_every_root(name, T):
    # an mpf T gives, to the bit, what the same search gives at its rational
    g, T = _potential(name), T if isinstance(T, mpmath.mpf) else F(T)
    with mpmath.workdps(40):
        got = _bits(phase._two_cut_candidates, g, T, 30)
        assert got == _bits(reference_two_cut_candidates, g, T, 30)
        assert got == _bits(phase._two_cut_candidates, g, rationalize(T), 30)


@pytest.mark.parametrize("name,T", ONE_CUT_INPUTS, ids=[f"{n}:T={T}" for n, T in ONE_CUT_INPUTS])
def test_one_cut_candidates_match_refining_every_root(name, T):
    g = _potential(name)
    got = _bits(phase._one_cut_candidates, g, T, 30)
    assert got == _bits(reference_one_cut_candidates, g, T, 30)
    assert got == _bits(phase._one_cut_candidates, g, rationalize(T), 30)


def _refinements(monkeypatch) -> list:
    """The (lo, hi) of every ``roots._refine`` call from here on."""
    calls, refine = [], roots._refine
    monkeypatch.setattr(roots, "_refine", lambda p, lo, hi, digits: calls.append((lo, hi))
                        or refine(p, lo, hi, digits))
    return calls


class TestRefinementOnDemand:
    def test_a_solution_with_b0_below_zero_is_decided_unrefined(self, monkeypatch):
        # R(·, 3)'s one real solution is a mirror pair with b₀ < 0, certified
        # on brackets; the refusal keeps its reason
        calls = _refinements(monkeypatch)
        with pytest.raises(NoTwoCutSolution, match="^no solution with a₀ > b₀ > 0$"):
            phase._two_cut_candidates(SEXTIC, F(3), 30)
        assert calls == []

    def test_only_the_kept_pair_is_refined(self, monkeypatch):
        calls = _refinements(monkeypatch)
        [(a0, b0)] = phase._two_cut_candidates(MERGE2, F(6), 30)
        assert len(calls) == 2
        with mpmath.workdps(40):
            for v, (lo, hi) in zip(sorted((b0, a0)), sorted(calls)):
                assert mpf_of(lo, 40) < v <= mpf_of(hi, 40)

    def test_quartic_one_cut_refines_its_positive_root_only(self, monkeypatch):
        calls = _refinements(monkeypatch)
        [r0] = phase._one_cut_candidates(parse_potential("quartic:1,1"), F(1), 30)
        assert r0 > 0 and len(calls) == 1 and calls[0][1] > 0

    def test_rational_pair_keeps_the_exact_test(self, monkeypatch):
        # TestExactness's quartic takes the closed form, never the pair search;
        # this sextic's one pair (a₀, b₀) = (2, 1) is rational, both its roots
        # are refined, and its residues are tested exactly
        tested, negligible_ = [], phase.negligible
        monkeypatch.setattr(phase, "negligible",
                            lambda x, digits: tested.append(x) or negligible_(x, digits))
        calls = _refinements(monkeypatch)
        g = parse_potential("sextic:-15,-4,1")
        assert phase._two_cut_candidates(g, F(40), 30) == [(F(2), F(1))]
        assert len(calls) == 2 and tested == [F(0), F(0)]
        p = classify_phase(g, F(40))
        assert (p.s, p.status, p.a0, p.b0) == (2, "regular", F(2), F(1))

    def test_brackets_as_wide_as_the_isolating_intervals_change_nothing(self, monkeypatch):
        # every bracket the isolating interval itself: fewer pairs are decided
        # on brackets, and at T = 12, where R(·, T) has a fourfold root as a
        # factor of its own, brackets of different factors overlap, so the
        # roots take real_roots' order by value
        monkeypatch.setattr(phase, "bracket", lambda f, a, b, digits: (a, b))
        for name, T in (("sextic:-6,-3,1", 6), ("sextic:-6,-3,1", 12), ("sextic:42,-11,1", 3),
                        ("sextic:24,-13,2", 1), ("sextic:-15,-4,1", 40)):
            g = parse_potential(name)
            assert (_bits(phase._two_cut_candidates, g, F(T), 30)
                    == _bits(reference_two_cut_candidates, g, F(T), 30))

    @pytest.mark.parametrize("p,rational", [(Poly([-1, 0, 4]), True), (Poly([-2, 0, 1]), False)],
                             ids=["±1/2", "±√2"])
    def test_a_rational_pair_is_never_settled_on_brackets(self, p, rational):
        # L = a₀ + b₀ − 10⁻²⁰ is 10⁻²⁰ off zero at the mirror pair x = −y:
        # negligible in mpf, but not zero in the exact test a rational pair gets
        (f, _, a, b), (g, _, c, e) = roots.isolate(p)
        y, x = (phase._Root(f, a, b, *roots.bracket(f, a, b, 30)),
                phase._Root(g, c, e, *roots.bracket(g, c, e, 30)))
        L = MPoly(2, {(1, 0): 1, (0, 1): 1})
        tests = ((L, L.lift(40), mpmath.mpf(10) ** -20),)
        with mpmath.workdps(40):
            assert phase._on_brackets(x, y, tests, 30) is (None if rational else True)

    def test_overlapping_brackets_take_real_roots_order(self, monkeypatch):
        # R(·, 12) has roots −1.37, 0.366 and a fourfold 1; giving 1 the wide
        # but certified bracket [−1, 3/2] puts its centre below 0.366's, so the
        # roots must be put in order by value before pairs x ≥ y are formed
        monkeypatch.setattr(phase, "bracket",
                            lambda f, a, b, digits: (a, b) if a < b else (F(-1), F(3, 2)))
        seen, on_brackets = [], phase._on_brackets
        monkeypatch.setattr(phase, "_on_brackets",
                            lambda x, y, *rest: seen.append((x, y)) or on_brackets(x, y, *rest))
        with pytest.raises(NoTwoCutSolution, match=f"^{OUT_OF_ORDER}$"):
            phase._two_cut_candidates(MERGE2, F(12), 30)
        value = {r: mpf_of(roots.refine(r.f, r.a, r.b, 30), 40) for pair in seen for r in pair}
        assert len(seen) == 6 and all(value[x] >= value[y] for x, y in seen)
