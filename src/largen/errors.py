"""Error taxonomy shared by the whole package.

Every failure mode that callers are expected to handle gets its own class, so
a caller can tell failures apart and map each to a machine-readable error
object.  Plain ``ZeroDivisionError`` is used for scalar/rational-function
division by zero.
"""


class LargenError(Exception):
    """Base class for all package-specific errors."""


class PrecisionExhausted(LargenError):
    """Requested digits cannot be certified (quadrature or root refinement)."""


class NoAdmissibleRoot(LargenError):
    """No positive hodograph root with a nonnegative induced density exists."""


class NoTwoCutSolution(LargenError):
    """The two-cut endpoint system has no admissible solution at this T."""


class Unclassifiable(LargenError):
    """Neither candidate phase is admissible at the requested tolerance."""


class OutsideSupport(LargenError):
    """Density evaluation requested outside the closed support."""


class CriticalPointHit(LargenError):
    """A regular expansion was requested at a point where the hodograph degenerates."""


class SingularHodograph(LargenError):
    """The two-cut hodograph Jacobian is singular at the solution."""


class NumericallySingular(LargenError):
    """Moment-to-recurrence reduction lost too much precision.

    Carries ``trusted_n``: the largest recurrence index that is still certified.
    """

    def __init__(self, message: str, trusted_n: int = -1):
        super().__init__(message)
        self.trusted_n = trusted_n


class TruncationExceeded(LargenError):
    """A series operation consumed more orders than were computed."""


class Mismatch(LargenError):
    """Cross-validation failed; carries the symbolic difference when available."""

    def __init__(self, message: str, difference=None):
        super().__init__(message)
        self.difference = difference


def certify(cond, what: str) -> None:
    """Raise ``Mismatch(what)`` unless ``cond`` holds.

    Certificates go through this instead of ``assert``, which ``python -O``
    strips.
    """
    if not cond:
        raise Mismatch(what)


def checked_index(k: int, top: int, what: str) -> int:
    """k itself when 0 ≤ k ≤ top; ``ValueError`` below, and
    ``TruncationExceeded(what)`` above, the computed range."""
    if k < 0:
        raise ValueError(f"index must be nonnegative, got {k}")
    if k > top:
        raise TruncationExceeded(what)
    return k
