"""The exact-or-mpf decision and the zero test shared by every module."""

from fractions import Fraction as F

import mpmath

from largen.scalars import lifted, negligible, rationalize, tolerance


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


def test_rationalize_is_exact_on_every_input():
    # a float, like an mpf, is a binary rational and is taken at its value
    assert rationalize(0.1) == F(0.1) != F(1, 10)
    with mpmath.workprec(200):
        assert rationalize(mpmath.mpf(1) / 3) != F(1, 3)
        assert rationalize(mpmath.mpf(0.1)) == F(0.1)
    assert rationalize(F(1, 3)) == F(1, 3) and rationalize(2) == F(2)
