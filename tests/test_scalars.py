"""The exact-or-mpf decision, the zero test and the precision rule shared by
every module."""

import re
from fractions import Fraction as F

import mpmath
import pytest

from largen.diffpoly import DiffPoly
from largen.mpolys import MPoly
from largen.onecut import expand_regular, find_critical
from largen.phase import (
    branch_density_positive,
    classify_phase,
    density,
    phase_scan,
    solve_one_cut,
    solve_two_cut,
)
from largen.polys import Poly
from largen.potential import parse_potential
from largen.roots import real_roots
from largen.scalars import (
    DEFAULT_DIGITS,
    is_exact,
    lifted,
    negligible,
    rationalize,
    tolerance,
    working_digits,
)
from largen.twocut import expand_two_cut_regular, find_merging


class TestLifted:
    def test_exact_stays_exact(self):
        assert lifted(F(1, 3), 30) == F(1, 3)
        assert isinstance(lifted(7, 30), F)

    def test_mpf_stays_mpf(self):
        x = mpmath.mpf(1) / 3
        assert isinstance(lifted(x, 30), mpmath.mpf) and lifted(x, 30) == x

    def test_a_point_lifts_as_one(self):
        assert lifted((F(3, 4), 1), 30) == (F(3, 4), F(1))
        a, b = lifted((F(3, 4), mpmath.mpf("0.25")), 30)
        assert isinstance(a, mpmath.mpf) and isinstance(b, mpmath.mpf)
        assert a == mpmath.mpf("0.75")


class TestNegligible:
    def test_tolerance_is_half_the_digits(self):
        assert tolerance(30) == mpmath.mpf(10) ** -15
        assert tolerance(31) == tolerance(30)

    def test_tolerance_is_at_most_a_tenth(self):
        # half of one digit is 0, and 10⁰ = 1 would count every |x| ≤ 1 as zero
        assert [tolerance(d) for d in (1, 2, 3)] == [mpmath.mpf(10) ** -1] * 3
        assert tolerance(4) == mpmath.mpf(10) ** -2
        assert not negligible(mpmath.mpf("0.5"), 1) and negligible(mpmath.mpf("0.05"), 1)

    def test_tiny_nonzero_fraction_is_not_negligible(self):
        assert not negligible(F(1, 10**100), 30)
        assert negligible(F(0), 30) and negligible(0, 30)

    def test_mpf_either_side_of_the_tolerance(self):
        tol = tolerance(30)
        nudge = 1 + mpmath.mpf(2) ** -20
        assert negligible(tol / nudge, 30)
        assert not negligible(tol * nudge, 30)
        assert not negligible(-tol * nudge, 30)

    def test_boundary_counts_as_zero(self):
        tol = tolerance(30)
        assert negligible(tol, 30) and negligible(-tol, 30)


def test_is_exact_means_int_bool_or_fraction():
    # matched by type: no table, decimal or string counts, not even one that
    # equals an exact constant
    assert all(is_exact(x) for x in (0, -7, 2**70, True, False, F(0), F(-3, 4)))
    tables = (Poly.zero(), Poly.const(2), MPoly.const(1, 2), MPoly.var(2, 1), DiffPoly.zero(),
              DiffPoly.const(1), DiffPoly.var("u"))
    assert not any(is_exact(x) for x in (mpmath.mpf(1), mpmath.mpf(0), 1.0, 0.0, "1", *tables))


def test_rationalize_is_exact_on_every_input():
    # a float, like an mpf, is a binary rational and is taken at its value
    assert rationalize(0.1) == F(0.1) != F(1, 10)
    with mpmath.workprec(200):
        assert rationalize(mpmath.mpf(1) / 3) != F(1, 3)
        assert rationalize(mpmath.mpf(0.1)) == F(0.1)
    assert rationalize(F(1, 3)) == F(1, 3) and rationalize(2) == F(2)


class TestWorkingDigits:
    def test_none_is_the_default_and_a_positive_int_passes(self):
        assert working_digits(None) == DEFAULT_DIGITS
        assert working_digits(1) == 1 and working_digits(80) == 80

    @pytest.mark.parametrize("bad", [0, -3, -10, 2.5, True, "30"])
    def test_anything_else_is_refused(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            working_digits(bad)


_Q, _QM = parse_potential("quartic:1,1"), parse_potential("quartic:-2,1")


@pytest.mark.parametrize("digits", [1, 2, 3])
@pytest.mark.parametrize("T", [F(1, 100), F(1, 10), F(1)])
def test_the_least_precision_classifies_as_the_others_do(T, digits):
    # quartic:1,1 is one-cut regular at every T > 0; with a tolerance of 1,
    # digits=1 reported a critical point at these three temperatures
    assert classify_phase(_Q, T, digits).status == "regular"

# every public entry point that takes ``digits``, as a function of it
ENTRY_POINTS = {
    "real_roots": lambda d: real_roots(Poly([-2, 0, 1]), d),
    "classify_phase": lambda d: classify_phase(_Q, 1, d),
    "solve_one_cut": lambda d: solve_one_cut(_Q, 1, d),
    "solve_two_cut": lambda d: solve_two_cut(_QM, F(1, 2), d),
    "expand_regular": lambda d: expand_regular(_Q, 1, 1, d),
    "expand_two_cut_regular": lambda d: expand_two_cut_regular(_QM, F(1, 2), 1, d),
    "find_critical": lambda d: find_critical(_Q, d),
    "find_merging": lambda d: find_merging(_QM, d),
    "branch_density_positive": lambda d: branch_density_positive(_Q, solve_one_cut(_Q, 1), d),
    "density": lambda d: density(_Q, classify_phase(_Q, 1), 0, d),
    "phase_scan": lambda d: phase_scan(_Q, [1], d),
    "OneCutExpansion.values": lambda d: expand_regular(_Q, 1, 1).values(d),
    "TwoCutExpansion.values": lambda d: expand_two_cut_regular(_QM, F(1, 2), 1).values(d),
    "TwoCutExpansion.slope_values": lambda d: expand_two_cut_regular(_QM, F(1, 2), 1).slope_values(d),
}


@pytest.mark.parametrize("bad", [0, -3, 2.5])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_a_digits_that_is_no_precision(entry, bad):
    # refused at entry, not deep inside: 0 and -3 name no precision, and 2.5
    # cannot size Fraction(1, 10 ** (digits + 5))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        ENTRY_POINTS[entry](bad)

