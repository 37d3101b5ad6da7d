"""The finite-N oracle: Lax-operator matrix elements and the discrete string
equation on one certified table."""

import dataclasses
from fractions import Fraction as F

import mpmath
import pytest

from largen.oracle import check_string_equation, lax_element, oracle_table
from largen.potential import parse_potential

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

