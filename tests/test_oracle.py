"""The finite-N oracle: moment tables pinned bit for bit, its refusals,
Lax-operator matrix elements, the discrete string equation on one certified
table, and r_{N,N} against the expansions at ε = T/N."""

import dataclasses
import json
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from largen.errors import NumericallySingular
from largen.onecut import expand_regular
from largen.oracle import (
    check_string_equation,
    compute_moments,
    lax_element,
    oracle_table,
    recurrence_from_moments,
)
from largen.potential import parse_potential
from largen.scalars import mpf_of
from largen.twocut import expand_two_cut_regular

DATA = Path(__file__).parent / "data"

QUARTIC = parse_potential("quartic:1,1")
R = [mpmath.mpf(v) for v in (2, 3, 5, 7, 11)]  # r_1..r_5


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
    """Moments and tables equal, bit for bit, those of the per-moment quadrature
    they replaced (files written by it)."""

    def test_one_interval_table(self, table):
        want = json.loads((DATA / "oracle_table_quartic_1_1_T1_N8_n12_d40.json").read_text())
        mt = compute_moments(QUARTIC, F(1), 8, 12, 40)
        got = {"moments": reprs(mt.moments, 160), "r": reprs(table.r, 160),
               "h": reprs(table.h, 160), "certified_digits": table.certified_digits}
        assert got == want

    def test_split_interval_moments(self):
        name = "compute_moments_sextic_-6_-3_1_T6_N10_k11_d50.json"
        want = json.loads((DATA / name).read_text())
        mt = compute_moments(parse_potential("sextic:-6,-3,1"), F(6), 10, 11, 50)
        assert reprs(mt.moments, 62) == want["moments"]


class TestRefusals:
    @pytest.mark.parametrize("args", [(8, 4, 29), (8, -1, 30), (0, 4, 30)],
                             ids=["digits<30", "kmax<0", "N<1"])
    def test_compute_moments(self, args):
        N, kmax, digits = args
        with pytest.raises(ValueError):
            compute_moments(QUARTIC, F(1), N, kmax, digits)

    def test_recurrence_from_moments(self):
        mt = compute_moments(QUARTIC, F(1), 8, 3, 30)
        with pytest.raises(ValueError, match="at least 1"):
            recurrence_from_moments(mt, 0)
        with pytest.raises(ValueError, match="need moments through m_8"):
            recurrence_from_moments(mt, 4)

    def test_odd_moments_vanish(self):
        mt = compute_moments(QUARTIC, F(1), 8, 3, 30)
        assert mt.moment(3) == 0 and mt.moment(4) == mt.moments[2] > 0

    def test_trusted_index(self):
        # the benchmark's trusted case: 30 digits certify r_n only through n = 24
        with pytest.raises(NumericallySingular) as err:
            oracle_table(QUARTIC, F(1), 40, 41, 30)
        assert err.value.trusted_n == 24


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
