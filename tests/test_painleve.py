"""Hierarchy members at critical points: the Gel'fand–Dikii and Painlevé II
recursions, ODE emission in canonical form, and the series crosscheck."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largen.diffpoly import DiffPoly, XRelation, own_layout
from largen.errors import Mismatch
from largen.onecut import OneCutCritical, find_critical
from largen.painleve import (
    CrosscheckReport,
    HierarchyMember,
    crosscheck_via_series,
    emit_critical_ode,
    gelfand_dikii,
    pii_hierarchy,
)
from largen.potential import Potential, parse_potential
from largen.twocut import MergingPoint, find_merging

BMP = Potential.bmp()
SEXTIC = parse_potential("sextic:42,-11,1")  # synthetic m = 2 one-cut point
MERGING = parse_potential("quartic:-2,1")
SEXTIC2 = parse_potential("sextic:-6,-3,1")  # m = 2 merging point
IRRATIONAL = parse_potential("sextic:3,-3,1")  # c_2 = -sqrt(6)

U = DiffPoly.var("u")
DATA = Path(__file__).parent / "data"
# nonzero exact critical radii, of either sign: homogeneity holds at every one
RADII = st.fractions(min_value=-10, max_value=10, max_denominator=12).filter(bool)


def pinned(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8").strip()


def gd_operator(R: DiffPoly, rc) -> DiffPoly:
    """(r_c ∂³ + 4u ∂ + 2uₓ) applied to R."""
    return R.d_dx(3) * rc + U * R.d_dx() * 4 + U.d_dx() * R * 2


def grading(p: DiffPoly) -> set:
    """Scaling weights of the monomials under u -> μ²u, x -> x/μ.

    A factor u^{(k)} picks up μ^{k+2}, so a monomial's weight is
    Σ e·(k+2) over its factors; homogeneity of R_m means a single weight.
    """
    return {sum(e * (o + 2) for _, o, e in mono) for mono in p.terms}


def series_product(a: list, b: list, k: int) -> DiffPoly:
    """The ζ^{-k} coefficient of (Σ a_i ζ^{-i})(Σ b_j ζ^{-j})."""
    out = DiffPoly.zero()
    for i in range(k + 1):
        out = out + a[i] * b[k - i]
    return out


def test_symbolic_members_match_pinned_reference():
    # ρ kept symbolic, pinned from the recursions run over ℚ(ρ): ρ = 1 tables
    # restored as c·ρ^{m−d} must render every coefficient the same way
    ref = json.loads(pinned("painleve_symbolic_gd8_pii6.json"))
    assert [gelfand_dikii(m).to_json() for m in range(9)] == ref["gelfand_dikii"]
    pairs = (pii_hierarchy(m) for m in range(7))
    assert [{"R": R.to_json(), "S": S.to_json()} for R, S in pairs] == ref["pii_hierarchy"]


class TestGelfandDikii:
    @given(rc=RADII)
    @settings(max_examples=10, deadline=None)
    def test_first_members(self, rc):
        assert gelfand_dikii(0, rc) == DiffPoly.const(1)
        assert gelfand_dikii(1, rc) == U * 2
        assert gelfand_dikii(2, rc) == U.d_dx(2) * (2 * rc) + U**2 * 6

    def test_third_member_at_unit_radius(self):
        R3 = gelfand_dikii(3, 1)
        expected = (U.d_dx(4) + U * U.d_dx(2) * 10 + U.d_dx() ** 2 * 5 + U**3 * 10) * 2
        assert R3 == expected

    @given(rc=RADII)
    @settings(max_examples=5, deadline=None)
    def test_recursion_is_exact_through_m_eight(self, rc):
        # d/dx R_{m+1} must equal the operator image of R_m on the nose, at
        # every radius the ρ = 1 tables are rescaled to
        for m in range(8):
            assert gelfand_dikii(m + 1, rc).d_dx() == gd_operator(gelfand_dikii(m, rc), rc)

    def test_no_integration_constants(self):
        for m in range(1, 9):
            assert gelfand_dikii(m).unit.constant_term() == 0

    def test_homogeneous_grading(self):
        for m in range(1, 9):
            assert grading(gelfand_dikii(m).unit) == {2 * m}

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            gelfand_dikii(-1)

    def test_symbolic_m4_json_pinned(self):
        # ρ kept symbolic: the coefficients that carry a power of ρ
        doc = gelfand_dikii(4).to_json()
        assert json.dumps(doc, ensure_ascii=False) == pinned("gelfand_dikii_m4.json")

    @given(m=st.integers(min_value=0, max_value=4), rc=RADII)
    @settings(max_examples=20, deadline=None)
    def test_evaluation_commutes_with_recursion(self, m, rc):
        # one step of the recursion run at r_c, against the ρ = 1 step rescaled
        stepped = gelfand_dikii(m + 1, rc)
        assert stepped.d_dx() == gd_operator(gelfand_dikii(m, rc), rc)
        assert stepped.constant_term() == 0

    @pytest.mark.parametrize("rc", [1, F(7, 15), F(-3, 2)])
    def test_first_integral_through_m_ten(self, rc):
        # ρ(RR″ - R′²/2) + 2uR² - ζR²/2 = -ζ/2 for R = Σ R_k ζ^{-k}: the ζ
        # coefficient is -R₀²/2, and every ζ^{-k} coefficient vanishes
        R = [gelfand_dikii(m, rc) for m in range(11)]
        D1 = [r.d_dx() for r in R]
        D2 = [r.d_dx(2) for r in R]
        assert R[0] * R[0] == DiffPoly.const(1)
        for k in range(10):
            coeff = (
                (series_product(R, D2, k) - series_product(D1, D1, k) * F(1, 2)) * rc
                + U * series_product(R, R, k) * 2 - series_product(R, R, k + 1) * F(1, 2)
            )
            assert coeff.is_zero(), k


class TestPIIHierarchy:
    @given(rc=RADII)
    @settings(max_examples=10, deadline=None)
    def test_seed_pair(self, rc):
        R0, S0 = pii_hierarchy(0, rc)
        assert R0 == U * (-1 / (2 * rc))
        assert S0 == U**2 * (-1 / (8 * rc**2))

    @given(rc=RADII)
    @settings(max_examples=10, deadline=None)
    def test_seed_compatibility(self, rc):
        # 2r_c ∂ₓS₀ and u ∂ₓR₀ are both -u·uₓ/(2r_c)
        R0, S0 = pii_hierarchy(0, rc)
        both = U * U.d_dx() * (-1 / (2 * rc))
        assert S0.d_dx() * (2 * rc) == both
        assert U * R0.d_dx() == both

    @given(rc=RADII)
    @settings(max_examples=10, deadline=None)
    def test_first_member(self, rc):
        R1, S1 = pii_hierarchy(1, rc)
        assert R1 == U.d_dx(2) * F(1, 2) + U**3 * (-1 / (4 * rc**2))
        expected_s = (
            U * U.d_dx(2) * (1 / (4 * rc))
            + U.d_dx() ** 2 * (-1 / (8 * rc))
            + U**4 * (-3 / (32 * rc**3))
        )
        assert S1 == expected_s

    @given(rc=RADII)
    @settings(max_examples=5, deadline=None)
    def test_recursion_is_exact_through_m_six(self, rc):
        for m in range(6):
            R, S = pii_hierarchy(m, rc)
            Rn, Sn = pii_hierarchy(m + 1, rc)
            assert Rn == R.d_dx(2) * (-rc) + U * S * 2
            assert Sn.d_dx() * (2 * rc) == U * Rn.d_dx()

    @given(rc=RADII)
    @settings(max_examples=5, deadline=None)
    def test_numeric_radius_evaluates_both(self, rc):
        # R_m(u; r_c) = r_c^m R_m(u/r_c; 1), read off by substitution
        for m in range(7):
            pair = pii_hierarchy(m, rc)
            for at_rc, symbolic in zip(pair, pii_hierarchy(m)):
                assert at_rc == symbolic.unit.substitute({"u": U * (1 / rc)}) * rc**m

    @pytest.mark.parametrize("rc", [1, F(1, 2), F(-3, 2)])
    def test_first_integral_through_m_eight(self, rc):
        # ζR²/2 + ρR′²/2 - 2ρS² + ζS = 0 for the series pair: the ζ
        # coefficient is R₀²/2 + S₀, and every ζ^{-k} coefficient vanishes
        R, S = (list(col) for col in zip(*(pii_hierarchy(m, rc) for m in range(9))))
        D1 = [r.d_dx() for r in R]
        assert (R[0] * R[0] * F(1, 2) + S[0]).is_zero()
        for k in range(8):
            coeff = (
                series_product(R, R, k + 1) * F(1, 2) + S[k + 1]
                + (series_product(D1, D1, k) * F(1, 2) - series_product(S, S, k) * 2) * rc
            )
            assert coeff.is_zero(), k

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            pii_hierarchy(-3)

    def test_symbolic_m2_json_pinned(self):
        # mixes ρ-free and ρ-dependent coefficients
        R, S = pii_hierarchy(2)
        doc = {"R": R.to_json(), "S": S.to_json()}
        assert json.dumps(doc, ensure_ascii=False) == pinned("pii_hierarchy_m2.json")


class TestCertificatesUnderO:
    # the series product that reads each new coefficient off a first integral
    # corrupted to return twice its value, in a fresh -O interpreter (so the
    # hierarchy caches are empty and asserts stripped)
    @pytest.mark.parametrize(
        "run, certificate",
        [
            ("painleve.gelfand_dikii(2)", "R_1 does not integrate the recursion"),
            ("painleve.pii_hierarchy(1)", "S_1 does not integrate the second recursion"),
        ],
    )
    def test_corrupted_integration_raises_mismatch(self, run, certificate, run_under_O):
        out = run_under_O(
            f"""
            assert False, "python -O should have stripped this"
            from largen import painleve
            from largen.errors import Mismatch
            product = painleve._product
            painleve._product = lambda a, b, k: product(a, b, k) * 2
            try:
                {run}
            except Mismatch as exc:
                print("Mismatch:", exc)
            """
        )
        assert out.startswith(f"Mismatch: {certificate}"), out


class TestEmission:
    def test_synthetic_sextic_second_member(self):
        crit = find_critical(SEXTIC)[0]
        member = emit_critical_ode(crit)
        assert member.family == "PI"
        assert (member.m, member.r_c, member.constant) == (2, F(7, 15), -8)
        expected = XRelation(U.d_dx(2) * 112 + U**2 * 720, DiffPoly.const(15))
        assert member.equation == expected
        assert member.S is None

    def test_bmp_third_member_with_its_sixth(self):
        crit = find_critical(BMP)[0]
        member = emit_critical_ode(crit)
        assert (member.family, member.m, member.r_c, member.constant) == ("PI", 3, 1, 3)
        expected = XRelation(
            U.d_dx(4) * 6 + U * U.d_dx(2) * 60 + U.d_dx() ** 2 * 30 + U**3 * 60,
            DiffPoly.const(-1),
        )
        assert member.equation == expected
        # same statement, written monically: u'''' + 10uu'' + 5u'² + 10u³ = x/6
        monic = XRelation(
            U.d_dx(4) + U * U.d_dx(2) * 10 + U.d_dx() ** 2 * 5 + U**3 * 10,
            DiffPoly.const(F(-1, 6)),
        )
        assert monic.normalize() == member.equation

    def test_quartic_merging_is_painleve_two(self):
        point = find_merging(MERGING)[0]
        member = emit_critical_ode(point)
        assert (member.family, member.m) == ("PII", 1)
        assert (member.r_c, member.constant) == (F(1, 2), -4)
        expected = XRelation(U.d_dx(2) * 2 - U**3 * 4, U * (-1))
        assert member.equation == expected
        assert member.S is not None

    def test_second_merging_member(self):
        point = find_merging(SEXTIC2)[0]
        member = emit_critical_ode(point)
        assert (member.family, member.m, member.constant) == ("PII", 2, -12)
        expected = XRelation(
            U.d_dx(4) * 24
            - U**2 * U.d_dx(2) * 60
            - U * U.d_dx() ** 2 * 60
            + U**5 * 9,
            U * 2,
        )
        assert member.equation == expected

    def test_canonical_form_is_idempotent(self):
        for crit in (find_critical(BMP)[0], find_merging(MERGING)[0]):
            eq = emit_critical_ode(crit).equation
            assert eq.normalize() == eq

    def test_json_round_trip_shape(self):
        member = emit_critical_ode(find_merging(MERGING)[0])
        doc = member.to_json()
        assert doc["family"] == "PII" and doc["m"] == 1
        assert doc["rc"] == "1/2" and doc["constant"] == "-4"
        assert doc["latex"] == member.latex()
        assert [t for t in doc["equation_terms"] if t["x"]] == [
            {"coeff": "-1", "factors": [["u", 0, 1]], "x": True}
        ]
        plain = [t for t in doc["equation_terms"] if not t["x"]]
        assert {t["coeff"] for t in plain} == {"2", "-4"}

    def test_latex_mentions_the_variable(self):
        member = emit_critical_ode(find_critical(SEXTIC)[0])
        assert "u_{xx}" in member.latex() and "x" in member.latex()

    def test_irrational_point_is_rejected(self):
        crit = find_critical(IRRATIONAL)[0]
        with pytest.raises(ValueError):
            emit_critical_ode(crit)

    def test_unknown_input_is_a_type_error(self):
        with pytest.raises(TypeError):
            emit_critical_ode("quartic:-2,1")


class TestCrosscheck:
    def test_one_cut_second_member(self):
        crit = find_critical(SEXTIC)[0]
        report = crosscheck_via_series(SEXTIC, crit)
        assert isinstance(report, CrosscheckReport)
        assert report.matches() and report.K == 2
        assert report.derived == report.member.equation

    def test_one_cut_third_member(self):
        crit = find_critical(BMP)[0]
        assert crosscheck_via_series(BMP, crit).matches()

    def test_merging_first_member(self):
        point = find_merging(MERGING)[0]
        report = crosscheck_via_series(MERGING, point)
        assert report.matches() and report.K == 3

    def test_merging_second_member(self):
        point = find_merging(SEXTIC2)[0]
        report = crosscheck_via_series(SEXTIC2, point)
        assert report.matches() and report.K == 5

    def test_deeper_truncation_changes_nothing(self):
        crit = find_critical(SEXTIC)[0]
        assert crosscheck_via_series(SEXTIC, crit, K=4).matches()

    def test_too_shallow_truncation_rejected(self):
        crit = find_critical(BMP)[0]
        with pytest.raises(ValueError):
            crosscheck_via_series(BMP, crit, K=2)
        point = find_merging(SEXTIC2)[0]
        with pytest.raises(ValueError):
            crosscheck_via_series(SEXTIC2, point, K=4)

    def test_four_points_pinned(self):
        # frozen member and derived documents at every exact critical and
        # merging point the package finds
        doc = {}
        for name, g, find in (("sextic:42,-11,1", SEXTIC, find_critical),
                              ("bmp", BMP, find_critical),
                              ("quartic:-2,1", MERGING, find_merging),
                              ("sextic:-6,-3,1", SEXTIC2, find_merging)):
            report = crosscheck_via_series(g, find(g)[0])
            doc[name] = {"member": report.member.to_json(), "derived": report.derived.to_json()}
        assert json.dumps(doc, ensure_ascii=False) == pinned("crosscheck_four_points.json")

    def test_wrong_constant_is_caught(self):
        good = find_critical(SEXTIC)[0]
        forged = OneCutCritical(r_c=good.r_c, T_c=good.T_c, m=good.m, c_m=F(-7))
        with pytest.raises(Mismatch) as exc:
            crosscheck_via_series(SEXTIC, forged)
        dp, dq = exc.value.difference
        assert not dp.is_zero() or not dq.is_zero()


def layout_documents() -> str:
    """Members, emitted equations and crosschecks, rendered in the layout in force."""
    doc = {
        "gd": [gelfand_dikii(m).to_json() for m in range(4)] + [gelfand_dikii(3, F(2, 3)).render()],
        "pii": [[p.to_json() for p in pii_hierarchy(m)] for m in range(3)]
        + [[p.render() for p in pii_hierarchy(2, F(-1, 2))]],
    }
    for name, g, find in (("bmp", BMP, find_critical), ("quartic:-2,1", MERGING, find_merging)):
        report = crosscheck_via_series(g, find(g)[0])
        doc[name] = [emit_critical_ode(find(g)[0]).to_json(), report.derived.to_json()]
    return json.dumps(doc, ensure_ascii=False)


def test_members_do_not_depend_on_the_layout_in_force():
    # inside a layout where u is not the first jet, every recursion still
    # starts from u itself, and each result keeps the layout it was built in
    top = layout_documents()
    with own_layout():
        for name in ("x", "r1", "a1"):
            DiffPoly.var(name, 2)
        inside = layout_documents()
    assert inside == top
    assert layout_documents() == top
