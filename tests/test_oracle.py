"""The finite-N oracle: moment tables pinned bit for bit, its refusals,
Lax-operator matrix elements, the discrete string equation on one certified
table, and r_{N,N} against the expansions at ε = T/N."""

import dataclasses
import json
import operator
import re
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp import mpf_add, mpf_exp, mpf_mul, round_nearest

from largen import oracle
from largen.errors import NumericallySingular, TruncationExceeded
from largen.onecut import expand_regular
from largen.oracle import (
    check_string_equation,
    compute_moments,
    lax_element,
    oracle_table,
    recurrence_from_moments,
)
from largen.potential import parse_potential
from largen.roots import real_roots
from largen.scalars import mpf_of, rationalize
from largen.twocut import expand_two_cut_regular

DATA = Path(__file__).parent / "data"

QUARTIC = parse_potential("quartic:1,1")
R = [mpmath.mpf(v) for v in (2, 3, 5, 7, 11)]  # r_1..r_5
SPLIT_PIN = "compute_moments_sextic_-6_-3_1_T6_N10_k11_d50.json"
# the 80-digit moment tables of the oracle benchmark, pinned bit for bit
PINNED_80 = [
    ("quartic:1,1", F(1), 24, "compute_moments_quartic_1_1_T1_N24_k25_d80_relative.json"),
    ("quartic:-2,1", F(1, 2), 16, "compute_moments_quartic_-2_1_T1_2_N16_k17_d80.json"),
]
# the same quartic:1,1 table as the absolute stop rule left it: m_50 is off by 9.1e-80
ABSOLUTE_STOP_PIN = "compute_moments_quartic_1_1_T1_N24_k25_d80.json"


@pytest.fixture(scope="module")
def table():
    return oracle_table(QUARTIC, F(1), 8, 12, 40)


def perturbed(rt, n, rel):
    """The table with r_n scaled by (1 + rel), at the table's precision."""
    with mpmath.workdps(2 * rt.digits):
        r = list(rt.r)
        r[n - 1] = r[n - 1] * (1 + mpmath.mpf(rel))
    return dataclasses.replace(rt, r=tuple(r))


class TestLaxElement:
    def test_low_powers(self):
        assert lax_element(R, 2, 0) == 0
        assert lax_element(R, 2, 1) == 3  # r_2
        assert lax_element(R, 2, 2) == 0  # odd band only

    def test_cube(self):
        # (L³)_{n,n-1} = r_n (r_{n-1} + r_n + r_{n+1})
        assert lax_element(R, 2, 3) == 3 * (2 + 3 + 5)

    def test_row_one_sees_r0_zero(self):
        # r_0 = 0 removes the r_{n-1} term, and every path dipping below v_0
        assert lax_element(R, 1, 3) == 2 * (2 + 3)
        # the five Dyck-like paths 1 → 0 of length 5: r3r2r1 + r2²r1 + r2r1² + r1r2r1 + r1³
        assert lax_element(R, 1, 5) == 30 + 18 + 12 + 12 + 8

    def test_bounds(self):
        for n, power in ((-1, 1), (1, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                lax_element(R, n, power)
        assert lax_element(R, 3, 3) == 5 * (3 + 5 + 7)  # needs exactly r_5
        with pytest.raises(ValueError, match="needs r through 6"):
            lax_element(R, 4, 3)


class TestStringEquation:
    def test_holds_to_the_certified_digits(self, table):
        assert table.certified_digits >= 30
        assert check_string_equation(table) < mpmath.mpf(10) ** (-table.certified_digits)

    def test_perturbed_r_fails(self, table):
        assert check_string_equation(perturbed(table, 4, "1e-20")) > mpmath.mpf(10) ** -22

    def test_short_table_refused(self, table):
        short = dataclasses.replace(table, r=table.r[:1], h=table.h[:2])
        with pytest.raises(ValueError, match="too short"):
            check_string_equation(short)



def reprs(values, dps):
    """repr of each mpf at ``dps``, which round-trips every bit at that precision."""
    with mpmath.workdps(dps):
        return [repr(v) for v in values]


class TestPinned:
    """Moments and tables equal, bit for bit, the files written before each
    rewrite of the quadrature: the 40- and 50-digit ones by the per-moment
    ``mpmath.quad`` calls, the 80-digit ones by the one-pass rule on mpmath's
    own nodes, except quartic:1,1, which the scale breakpoints and the
    relative stop rule re-pinned (its old file is checked to 1e-79)."""

    def test_one_interval_table(self, table):
        want = json.loads((DATA / "oracle_table_quartic_1_1_T1_N8_n12_d40.json").read_text())
        mt = compute_moments(QUARTIC, F(1), 8, 12, 40)
        got = {"moments": reprs(mt.moments, 160), "r": reprs(table.r, 160),
               "h": reprs(table.h, 160), "certified_digits": table.certified_digits}
        assert got == want

    def test_split_interval_moments(self):
        want = json.loads((DATA / SPLIT_PIN).read_text())
        mt = compute_moments(parse_potential("sextic:-6,-3,1"), F(6), 10, 11, 50)
        assert reprs(mt.moments, 62) == want["moments"]

    @pytest.mark.parametrize("name,T,N,fname", PINNED_80,
                             ids=["quartic:1,1 N24", "quartic:-2,1 N16"])
    def test_benchmark_tables_at_80_digits(self, name, T, N, fname):
        want = json.loads((DATA / fname).read_text())
        mt = compute_moments(parse_potential(name), T, N, N + 1, 80)
        assert reprs(mt.moments, 92) == want["moments"]

    def test_absolute_stop_pin_agrees_to_its_error(self):
        # the absolute stop rule froze m_50's sum early: 9.1e-80 relative against a
        # 130-digit table, where the relative rule's m_50 is within 3e-94
        old = json.loads((DATA / ABSOLUTE_STOP_PIN).read_text())["moments"]
        mt = compute_moments(QUARTIC, F(1), 24, 25, 80)
        with mpmath.workdps(92):
            err = [abs(mpmath.mpf(v[5:-2]) / m - 1) for v, m in zip(old, mt.moments)]
            assert len(err) == 26 and max(err) < mpmath.mpf("1e-79")
            assert max(err) > mpmath.mpf("1e-80")  # the file still holds the wrong m_50


class TestAccuracy:
    """Every moment agrees with the same table at 50 more digits to digits + 5
    decimals, relative.  An absolute stop rule freezes small moments early: on a
    single interval it missed the first two tables (m_50 by 9.1e-80, m_82 by
    5.6e-31); with the scale breakpoints it still misses the third (1.4e-75)."""

    @pytest.mark.parametrize("T,N,digits", [(1, 24, 80), (1, 40, 30), (F(1, 4), 24, 80)])
    def test_against_fifty_more_digits(self, T, N, digits):
        mt = compute_moments(QUARTIC, F(T), N, N + 1, digits)
        ref = compute_moments(QUARTIC, F(T), N, N + 1, digits + 50)
        with mpmath.workdps(digits + 60):
            worst = max(abs(m / r - 1) for m, r in zip(mt.moments, ref.moments))
        assert worst < mpmath.mpf(10) ** -(digits + 5), mpmath.nstr(worst, 3)

    @pytest.mark.parametrize("name,T,N,digits", [("bmp", 60, 8, 90), ("quartic:1,1", 2, 24, 160)])
    def test_broad_weights_certify(self, name, T, N, digits):
        # one interval over [0, ∞) left both unresolved (PrecisionExhausted)
        rt = oracle_table(parse_potential(name), F(T), N, N + 1, digits)
        assert rt.certified_digits >= 80


def reference_node_sums(nodes, nscale, vc, kmax):
    """``oracle._node_sums`` as it was before nodes were streamed and skipped:
    every node of the list pays its exponential."""
    prec, rnd = mpmath.mp.prec, round_nearest
    width = prec + 32
    acc, low = [0] * (kmax + 1), [None] * (kmax + 1)
    for start in range(0, len(nodes), 64):
        mans, exps = [[] for _ in acc], [[] for _ in acc]
        for x, w in nodes[start : start + 64]:
            lam = mpf_mul(x, x, prec, rnd)
            v = vc[0]
            for c in vc[1:]:
                v = mpf_add(mpf_mul(v, lam, prec, rnd), c, prec, rnd)
            _, m, e, _ = mpf_exp(mpf_mul(nscale, v, prec, rnd), prec, rnd)
            (_, wm, we, _), (_, xm, xe, _) = w, x
            m, e, xm, xe = m * wm, e + we, xm * xm, 2 * xe
            for ms, es in zip(mans, exps):
                cut = m.bit_length() - width
                m = m >> cut if cut >= 0 else m << -cut
                e += cut
                ms.append(m)
                es.append(e)
                m, e = m * xm, e + xe
        for k, (ms, es) in enumerate(zip(mans, exps)):
            f = max(es)
            if low[k] is not None:
                f = max(f, low[k])
                acc[k] >>= f - low[k]
            low[k] = f
            acc[k] += sum(map(operator.rshift, ms, [f - e for e in es]))
    return [mpmath.mpf(pair) for pair in zip(acc, low)]


def quadrature_setup(name, T, N, digits):
    """(prec, nscale, vc, split points) as ``compute_moments`` builds them;
    call inside ``mpmath.workdps(digits + 12)``."""
    g = parse_potential(name)
    nscale = (-mpmath.mpf(N) / mpf_of(T, digits + 12))._mpf_
    vc = [mpf_of(c, digits + 12)._mpf_ for c in reversed(g.v().coeffs)]
    return mpmath.mp.prec, nscale, vc, oracle._split_points(g, T, N, min(digits, 30))


class TestNodeStream:
    """The streamed nodes are mpmath's, and skipping vanishing terms changes
    no sum."""

    @pytest.mark.parametrize("digits", [30, 80])
    def test_nodes_are_mpmaths(self, digits):
        rule = TanhSinh(mpmath.mp)
        with mpmath.workdps(digits + 12):
            prec = mpmath.mp.prec
            s = quadrature_setup("sextic:-6,-3,1", 6, 10, digits)[3][1]
            with mpmath.workprec(prec + 20):
                for degree in range(1, 10):
                    std = rule.calc_nodes(degree, prec)
                    raw = oracle._standard_nodes(degree, prec)
                    assert raw == tuple((x._mpf_, w._mpf_) for x, w in std)
                    assert oracle._standard_nodes(degree, prec) is raw  # built once
                    for a, b in ((0, mpmath.inf), (0, s), (s, mpmath.inf)):
                        a, b = mpmath.mpf(a), mpmath.mpf(b)
                        want = [(x._mpf_, w._mpf_) for x, w in rule.transform_nodes(std, a, b)]
                        assert list(oracle._interval_nodes(raw, a._mpf_, b._mpf_, prec)) == want

    @pytest.mark.parametrize("name,T,N,digits", [
        ("quartic:1,1", 1, 8, 80), ("quartic:-2,1", F(1, 2), 16, 50), ("bmp", 60, 8, 50),
    ])
    def test_sums_match_every_node_summed(self, name, T, N, digits):
        with mpmath.workdps(digits + 12):
            prec, nscale, vc, points = quadrature_setup(name, T, N, digits)
            with mpmath.workprec(prec + 20):
                for degree in range(1, 9):
                    std = oracle._standard_nodes(degree, prec)
                    for a, b in zip(points, points[1:]):
                        nodes = list(oracle._interval_nodes(std, a._mpf_, b._mpf_, prec))
                        got = oracle._node_sums(iter(nodes), nscale, vc, N + 1)
                        want = reference_node_sums(nodes, nscale, vc, N + 1)
                        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]

    @pytest.mark.parametrize("name,T,N,digits", [
        ("quartic:1,1", 1, 24, 80), ("quartic:-2,1", F(1, 2), 16, 50),
    ])
    def test_open_moments_alone_keep_every_bit(self, name, T, N, digits):
        # frozen moments are neither kept nor summed, and nodes may be skipped
        # on the open ones alone; each open sum is still the all-moment one
        with mpmath.workdps(digits + 12):
            prec, nscale, vc, points = quadrature_setup(name, T, N, digits)
            with mpmath.workprec(prec + 20):
                for degree in (3, 7):
                    std = oracle._standard_nodes(degree, prec)
                    for a, b in zip(points, points[1:]):
                        nodes = list(oracle._interval_nodes(std, a._mpf_, b._mpf_, prec))
                        full = oracle._node_sums(iter(nodes), nscale, vc, N + 1)
                        for done in ({N + 1}, {0, 1, 2}, set(range(0, N + 2, 2)), set(range(N))):
                            got = oracle._node_sums(iter(nodes), nscale, vc, N + 1, done)
                            last = max(set(range(N + 2)) - done)
                            assert len(got) == last + 1
                            for k, v in enumerate(got):
                                assert v is None if k in done else v._mpf_ == full[k]._mpf_

    def test_vanishing_nodes_skip_the_exponential(self, monkeypatch):
        # per interval: nodes streamed and exponentials taken
        seen, exps, where = {}, {}, [None]
        interval_nodes, node_sums, exp = oracle._interval_nodes, oracle._node_sums, oracle.mpf_exp

        def tagged(std, a, b, prec):
            where[0] = (a, b)
            return interval_nodes(std, a, b, prec)

        def counted_exp(*args):
            exps[where[0]] = exps.get(where[0], 0) + 1
            return exp(*args)

        def counted(nodes, *args):
            nodes = list(nodes)
            seen[where[0]] = seen.get(where[0], 0) + len(nodes)
            monkeypatch.setattr(oracle, "mpf_exp", counted_exp)
            try:
                return node_sums(nodes, *args)
            finally:
                monkeypatch.setattr(oracle, "mpf_exp", exp)

        monkeypatch.setattr(oracle, "_interval_nodes", tagged)
        monkeypatch.setattr(oracle, "_node_sums", counted)
        compute_moments(QUARTIC, F(1), 24, 25, 80)
        with mpmath.workdps(92):
            zero, inner, outer, inf = (x._mpf_ for x in oracle._split_points(QUARTIC, F(1), 24, 30))
        # between the two scale radii, 452 of 633 nodes pay an exponential; with
        # the skip gone, all 633 would
        assert set(seen) == {(zero, inner), (inner, outer), (outer, inf)}
        assert exps[inner, outer] <= seen[inner, outer] * 3 / 4, (exps, seen)

    def test_pinned_table_under_python_O(self, run_under_O):
        out = run_under_O(
            f"""
            assert False, "python -O should have stripped this"
            import json
            from fractions import Fraction
            import mpmath
            from largen.oracle import compute_moments
            from largen.potential import parse_potential
            mt = compute_moments(parse_potential("sextic:-6,-3,1"), Fraction(6), 10, 11, 50)
            with mpmath.workdps(62):
                got = [repr(v) for v in mt.moments]
            want = json.loads(open({str(DATA / SPLIT_PIN)!r}).read())["moments"]
            print("match" if got == want else "differ")
            """
        )
        assert out.strip() == "match"


def _fallbacks(prec):
    """(vals, eps) that ``_settled`` must leave to mpmath at working precision prec."""
    eps, one = mpmath.eps / 8, mpmath.mpf(1)
    return [
        ([one + mpmath.mpf(10) ** -5, one], eps),  # two values
        ([one, one, one], eps),  # equal values
        ([one + mpmath.mpf(10) ** -9, one, one], eps),  # the last two equal
        ([one - mpmath.mpf(10) ** -2, one - mpmath.mpf(10) ** -4, one], eps),  # D4 ≈ -8
        ([one + 3, one - 5, one], eps),  # D4 = 0
        ([one + 3 * mpmath.mpf(10) ** -20, one + 7 * mpmath.mpf(10) ** -31, one],
         mpmath.mpf(10) ** -(prec // 4)),  # log10(eps) an integer
    ]


class TestSettled:
    """``_settled`` gives ``estimate_error``'s verdict, from floats where they
    cannot be wrong and from mpmath elsewhere."""

    @pytest.mark.parametrize("prec", [120, 306, 570])
    def test_agrees_with_estimate_error(self, prec):
        with mpmath.workprec(prec + 20):
            eps, one = mpmath.eps / 8, mpmath.mpf(1)
            cases = _fallbacks(prec)
            for a in range(1, prec // 3, 4):
                for b in range(1, prec // 2, 6):
                    vals = [one + 3 * mpmath.mpf(10) ** -a, one - 7 * mpmath.mpf(10) ** -b, one]
                    cases += [(vals, eps), (vals[::-1], eps)]
            verdicts = set()
            for vals, e in cases:
                want = oracle._TANH_SINH.estimate_error(vals, prec, e) <= e
                assert oracle._settled(vals, prec, e) == want, (vals, e)
                verdicts.add(want)
            assert verdicts == {True, False}

    def test_only_the_fallback_cases_call_mpmath(self, monkeypatch):
        prec = 306
        calls = []
        estimate = oracle._TANH_SINH.estimate_error
        monkeypatch.setattr(oracle._TANH_SINH, "estimate_error",
                            lambda *args: calls.append(args) or estimate(*args))
        with mpmath.workprec(prec + 20):
            one = mpmath.mpf(1)
            for vals, eps in _fallbacks(prec):
                oracle._settled(vals, prec, eps)
            assert len(calls) == len(_fallbacks(prec))
            oracle._settled([one + mpmath.mpf(10) ** -20, one + mpmath.mpf(10) ** -31, one],
                            prec, mpmath.eps / 8)
            assert len(calls) == len(_fallbacks(prec))


# (potential, T, N, scale radii): at quartic:1,1, N/T = 1024 the first lies below 1/2,
# and at sextic:3,-3,1 (N/T)·V(s²) = 500 is past the first level already
SCALE_CASES = [
    ("quartic:1,1", F(1), 24, 2),
    ("quartic:1,1", F(1, 4), 256, 2),
    ("quartic:-2,1", F(1, 2), 16, 2),
    ("bmp", F(60), 8, 2),
    ("sextic:-6,-3,1", F(6), 10, 2),
    ("sextic:3,-3,1", F(1), 500, 1),
]


class TestScaleRadii:
    @pytest.mark.parametrize("name,T,N,count", SCALE_CASES,
                             ids=[f"{c[0]}:N/T={c[2] / c[1]}" for c in SCALE_CASES])
    def test_each_radius_is_just_past_its_level(self, name, T, N, count):
        # in exact arithmetic: a scale radius p with 2^(e-1) < p <= 2^e is past
        # its level, and p - 2^(e - _LEVEL_BITS) is at or inside s or not past it
        g = parse_potential(name)

        def weight(x):  # (N/T)·V(x²)
            return N / T * g.v()(x * x)

        inner = sum(1 for r in real_roots(g.v_lambda(), 30) if r.value > 0)
        pts = oracle._split_points(g, T, N, 30)
        assert pts[-1] == mpmath.inf
        s, radii = rationalize(pts[inner]), [rationalize(p) for p in pts[inner + 1 : -1]]
        levels = [lv for lv in oracle._LEVELS if weight(s) < lv]
        assert len(radii) == len(levels) == count
        for p, level in zip(radii, levels):
            e = 0
            while F(2) ** e < p:
                e += 1
            while F(2) ** (e - 1) >= p:
                e -= 1
            step = F(2) ** (e - oracle._LEVEL_BITS)
            assert (p / step).denominator == 1
            assert weight(p) > level
            assert p - step <= s or weight(p - step) <= level


class TestRefusals:
    @pytest.mark.parametrize("args", [(1, 8, 4, 29), (1, 8, -1, 30), (1, 0, 4, 30),
                                      (0, 8, 3, 30), (-1, 8, 3, 30)],
                             ids=["digits<30", "kmax<0", "N<1", "T=0", "T<0"])
    def test_compute_moments(self, args):
        T, N, kmax, digits = args
        with pytest.raises(ValueError):
            compute_moments(QUARTIC, F(T), N, kmax, digits)

    def test_recurrence_from_moments(self):
        mt = compute_moments(QUARTIC, F(1), 8, 3, 30)
        with pytest.raises(ValueError, match="at least 1"):
            recurrence_from_moments(mt, 0)
        with pytest.raises(ValueError, match="need moments through m_8"):
            recurrence_from_moments(mt, 4)

    def test_odd_moments_vanish(self):
        mt = compute_moments(QUARTIC, F(1), 8, 3, 30)
        assert mt.moment(3) == 0 and mt.moment(4) == mt.moments[2] > 0

    def test_moment_index_range(self):
        # m_0..m_6 were computed: a negative index must not wrap to the top
        mt = compute_moments(QUARTIC, F(1), 8, 3, 30)
        assert mt.moment(6) == mt.moments[3] and mt.moment(5) == 0
        for bad in (-1, -2):
            with pytest.raises(ValueError, match="nonnegative"):
                mt.moment(bad)
        for past in (7, 8):
            with pytest.raises(TruncationExceeded, match="through m_6"):
                mt.moment(past)

    def test_r_at_index_range(self, table):
        assert table.r_at(0) == 0 and table.r_at(12) == table.r[11]
        with pytest.raises(ValueError, match="nonnegative"):
            table.r_at(-1)
        with pytest.raises(TruncationExceeded, match="through r_12"):
            table.r_at(13)

    def test_trusted_index(self):
        # the benchmark's trusted case: 30 digits certify r_n only through n = 24
        with pytest.raises(NumericallySingular) as err:
            oracle_table(QUARTIC, F(1), 40, 41, 30)
        assert err.value.trusted_n == 24

    def test_refusal_names_digits_that_suffice(self):
        with pytest.raises(NumericallySingular, match=r"r_41 needs about \d+ digits") as err:
            oracle_table(QUARTIC, F(1), 40, 41, 30)
        need = int(re.search(r"about (\d+) digits", str(err.value)).group(1))
        assert oracle_table(QUARTIC, F(1), 40, 41, need).certified_digits >= 10

    def test_digits_from_n(self):
        # no digits given: 30 + 2 per unit of N, which the reduction loses
        rt = oracle_table(parse_potential("quartic:-2,1"), F(1, 2), 29, 29)
        assert rt.digits == 88 and rt.nmax == 29 and rt.certified_digits >= 10


class TestAgainstExpansion:
    """r_{N,N} follows Σ x_k ε^{2k} with ε = T/N, not 1/N."""

    def test_one_cut_third_order(self):
        T = F(2)
        r = [mpf_of(c, 40) for c in expand_regular(QUARTIC, T, 3).values(40)]
        miss = []
        with mpmath.workdps(40):
            for N in (12, 16):
                e2 = mpf_of(T / N, 40) ** 2
                rN = oracle_table(QUARTIC, T, N, N, 40).r_at(N)
                r3 = (rN - r[0] - r[1] * e2 - r[2] * e2**2) / e2**3
                miss.append(abs(r3 / r[3] - 1))
        # -4.5215e-5 at N = 16 against r₃ = -55836/1220703125 = -4.5741e-5
        assert miss[1] < miss[0] and miss[1] < mpmath.mpf("0.02")

    @pytest.mark.parametrize("Ns,side", [((12, 16), 1), ((13, 17), 0)], ids=["b,even", "a,odd"])
    def test_two_cut_first_order(self, Ns, side):
        g, T = parse_potential("quartic:-2,1"), F(1, 2)
        x0, x1 = (pair[side] for pair in expand_two_cut_regular(g, T, 1).values(40))
        residual = []
        with mpmath.workdps(40):
            for N in Ns:
                rN = oracle_table(g, T, N, N, 40).r_at(N)
                residual.append(abs(N * N * (rN - x0) - mpf_of(T, 40) ** 2 * x1))
        # 0.01064 -> 0.00575 (b, even N) and 0.02285 -> 0.01242 (a, odd N): O(N^-2)
        assert residual[1] <= residual[0] * 1.1 * (Ns[0] / Ns[1]) ** 2
