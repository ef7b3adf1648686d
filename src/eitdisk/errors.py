"""Exception types shared across the package, and its rules for integer arguments and values."""

import math
import numbers
from fractions import Fraction

__all__ = [
    "EitdiskError",
    "DomainError",
    "DegenerateSequenceError",
    "KindMismatchError",
    "RangeError",
    "ShapeError",
    "FormatError",
    "SingularPointError",
    "InconsistentDataError",
]


class EitdiskError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EitdiskError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateSequenceError(EitdiskError, ValueError):
    """Exponent sequence with repeated entries; the basis degenerates."""


class KindMismatchError(EitdiskError, TypeError):
    """Field or matrix-set kind does not match the requested operation."""


class RangeError(EitdiskError, IndexError):
    """Index (angular order, coefficient index, ...) outside the stored range."""


class ShapeError(EitdiskError, ValueError):
    """Matrix block whose shape is inconsistent with its declared kind/size."""


class FormatError(EitdiskError, ValueError):
    """Malformed serialized input (JSON schema or CSV layout)."""


class SingularPointError(EitdiskError, ValueError):
    """Evaluation requested at a critical point of the conformal map."""


class InconsistentDataError(EitdiskError):
    """Matrix data violates a structural condition beyond tolerance.

    Carries the full validation report in ``report``.
    """

    def __init__(self, report, message="matrix data fails structural validation"):
        super().__init__(message)
        self.report = report


def integer(value, least, what) -> int:
    """``value`` as an int; a DomainError unless it is an integer >= ``least`` (0 or 1).

    Every count, order, frequency and truncation argument passes through here.
    numpy integers pass; bools, floats (integral ones such as 8.0 too),
    strings and None do not.
    """
    if (type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral))
            or value < least):  # type() first: a plain int skips the slower abstract-class check
        raise DomainError(f"{what} must be {('non-negative', 'positive')[least]} (integers only), not {value!r}")
    return int(value)


def rational(value) -> bool:
    """Whether a value is exact: a ``numbers.Rational`` (numpy integers included) that is not a bool."""
    return isinstance(value, numbers.Rational) and not isinstance(value, bool)


def real(value, what):
    """``value`` as an exact rational or a finite float; a DomainError if it is neither.

    Exact values (``rational``) pass, numpy integers as ints (they wrap).  Every
    other real, bools and numpy floats included, becomes a float, which must be finite.
    """
    if type(value) in (int, Fraction):  # type() first: these skip the slower abstract-class checks
        return value
    if type(value) is not float:
        if rational(value):
            return int(value) if isinstance(value, numbers.Integral) else value
        if not isinstance(value, numbers.Real):
            raise DomainError(f"{what} {value!r} is not a real number")
        value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{what} {value!r} is non-finite")
    return value
