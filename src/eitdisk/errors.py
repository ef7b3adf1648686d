"""Exception types shared across the package, its rules for integer arguments and values, and its record base."""

import math
import numbers
from fractions import Fraction

import numpy as np

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


def one_of(value, names) -> bool:
    """Whether ``value`` is one of the strings ``names``: its type is tested first, so an array is never compared."""
    return type(value) is str and value in names


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


def double(value, what) -> float:
    """A float as given; any other real number (``real``) as the nearest double, beyond whose range it is a
    DomainError.  Every scalar real argument read as a double, and every exact value rounded to one, passes here."""
    return value if isinstance(value, float) else quotients([real(value, what)], 1, what)[0]


def quotients(nums, den, what) -> list:
    """The doubles nearest n / den, for exact n and an int den; one beyond the double range is a DomainError."""
    try:
        return [float(n / den) for n in nums]  # one rounding: int / int is a double, Fraction / int exact
    except OverflowError:
        raise DomainError(f"{what} is beyond the range of a double") from None


def real_array(values, what, dtype=float) -> np.ndarray:
    """``values`` as a float array; a DomainError unless every entry is a real number.

    Bool, integer and float arrays pass on their dtype, with no loop over the
    entries.  In any other array (Fractions, ints beyond 64 bits, None, strings,
    complex numbers) each entry must be a ``numbers.Real``, as ``real`` asks;
    with ``dtype`` complex, a ``numbers.Complex``.  Bools read as 0 and 1;
    NaN and infinities pass, for the caller to judge.  Ragged rows, which form
    no array, are a ShapeError.
    """
    number, kinds = (numbers.Real, "biuf") if dtype is float else (numbers.Complex, "biufc")
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ShapeError(f"{what} rows are not all of one length") from None
    if arr.dtype.kind in kinds:
        return arr.astype(dtype, copy=False)
    arr = np.asarray(values, dtype=object)  # the entries as given: a string or complex dtype converts them all
    for value in arr.ravel().tolist():
        if not isinstance(value, number):
            raise DomainError(f"{what} {value!r} is not a {number.__name__.lower()} number")
    try:
        return arr.astype(dtype)
    except OverflowError:  # an int or Fraction beyond the double range
        raise DomainError(f"{what} is beyond the range of a double") from None


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields once, in ``_fields`` (and in ``__slots__`` unless
    it keeps an instance dict); its ``__init__`` checks the arguments and stores
    them with ``_store``.  A record equals a record of its own class with equal
    fields and hashes as their tuple; setting or deleting an attribute is an
    AttributeError; copy, deepcopy and pickle call the constructor again.
    """

    __slots__ = _fields = ()

    def _store(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """A record of values the program has already checked; the subclass's ``__init__`` is skipped."""
        self = object.__new__(cls)
        self._store(*values)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
