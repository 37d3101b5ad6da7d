"""Scalar values: exact rationals with a controlled escape hatch to decimals.

All series algebra in this package is exact: ``fractions.Fraction`` scalars,
and polynomials whose integer numerators share one denominator.  Decimals
(mpmath ``mpf``) enter only where the mathematics genuinely leaves the
rationals: root refinement and quadrature.  A ``Scalar`` is therefore either a
``Fraction`` (exact) or an ``mpf`` (correct to a stated number of digits).
Whether a value goes on exactly is decided by ``lifted``, and whether it
counts as zero by ``negligible``, here and nowhere else.

The default working precision is ``DEFAULT_DIGITS`` decimal digits, and
``working_digits`` is the one rule for a precision a caller passes, and
``truncation_order`` the one rule for a truncation order K.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

import mpmath

Scalar = Union[Fraction, mpmath.mpf]

DEFAULT_DIGITS = 30


def working_digits(digits) -> int:
    """The precision a caller asked for: ``DEFAULT_DIGITS`` for None, else an
    int of at least 1; anything else is refused with ValueError."""
    if digits is None:
        return DEFAULT_DIGITS
    if type(digits) is not int or digits < 1:
        raise ValueError(f"digits must be an int of at least 1 or None, not {digits!r}")
    return digits


def truncation_order(K, least: int = 0, below: str = "truncation order must be nonnegative"):
    """A caller's truncation order: an int, not a bool, of at least ``least``, else ValueError."""
    if type(K) is not int:
        raise ValueError(f"truncation order must be an int, not {K!r}")
    if K < least:
        raise ValueError(below)
    return K


# the exact scalar types, matched by type: isinstance would run Fraction's ABC
# check on every table operand that is not one
_EXACT = (int, Fraction, bool)


def is_exact(x) -> bool:
    """Whether x is an exact scalar: an int, a bool or a Fraction."""
    return type(x) in _EXACT


def as_fraction(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction; reject floats (lossy)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot treat {type(x).__name__} as an exact rational")


def rationalize(x) -> Fraction:
    """The exact Fraction of a Scalar or a float (every mpf and every float is
    a binary rational)."""
    if is_exact(x):
        return as_fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    p, q = mpmath.libmp.to_rational(x._mpf_)
    return Fraction(int(p), int(q))


def _to_mpf(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def mpf_of(x, digits: int | None = None) -> mpmath.mpf:
    """Convert a Scalar to mpf at the given precision (plus small guard)."""
    digits = DEFAULT_DIGITS if digits is None else digits
    with mpmath.workdps(digits + 5):
        return _to_mpf(x)


def mpfs_of(xs, digits: int) -> list:
    """``mpf_of(x, digits)`` of each x, under one precision context: the lift
    of a polynomial's coefficients, made once and evaluated many times."""
    with mpmath.workdps(digits + 5):
        return [_to_mpf(x) for x in xs]


def lifted(x, digits: int | None = None):
    """x as a Fraction when it is exact, otherwise as an mpf at ``digits``.

    A tuple is lifted as one point: all Fractions when every entry is exact,
    otherwise all mpf, so that its entries combine with each other.
    """
    if isinstance(x, tuple):
        if all(is_exact(v) for v in x):
            return tuple(as_fraction(v) for v in x)
        return tuple(mpf_of(v, digits) for v in x)
    return as_fraction(x) if is_exact(x) else mpf_of(x, digits)


def tolerance(digits: int) -> mpmath.mpf:
    """10^-max(1, digits//2), at the working precision: the largest |x| that
    counts as zero for an mpf carried at ``digits``, never more than 1/10."""
    return mpmath.mpf(10) ** -max(1, digits // 2)


def negligible(x, digits: int) -> bool:
    """Is x zero: ``x == 0`` for an exact x, ``|x| <= tolerance(digits)`` for
    an mpf.  The boundary |x| = tolerance counts as zero."""
    if is_exact(x):
        return x == 0
    return abs(x) <= tolerance(digits)


def sqrt_fraction_exact(q: Fraction):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_scalar(x, digits: int | None = None) -> Scalar:
    """Square root that stays exact when it can (perfect squares)."""
    if is_exact(x):
        q = as_fraction(x)
        root = sqrt_fraction_exact(q)
        if root is not None:
            return root
        digits = DEFAULT_DIGITS if digits is None else digits
        with mpmath.workdps(digits + 5):
            return mpmath.sqrt(mpf_of(q, digits))
    with mpmath.workdps((DEFAULT_DIGITS if digits is None else digits) + 5):
        return mpmath.sqrt(x)


def scalar_str(x, digits: int | None = None) -> str:
    """Deterministic rendering: exact rationals as p/q, decimals via nstr."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    digits = DEFAULT_DIGITS if digits is None else digits
    return mpmath.nstr(x, digits)
