"""Sparse polynomial radial profiles and trigonometric-series fields on the disk.

A field is gamma(r, phi) = sum_k a_k(r) cos(k phi) + sum_k b_k(r) sin(k phi)
with polynomial radial profiles; the k = 0 cosine term carries no extra 1/2
factor (profiles are stored exactly as they appear in the series).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import (DomainError, KindMismatchError, Record, ShapeError, double, integer, one_of, quotients, real,
                     real_array)

__all__ = [
    "CONDUCTIVITY",
    "POTENTIAL",
    "RadialProfile",
    "FourierRadialField",
    "eval_field",
    "eval_field_grid",
    "moment",
    "l2_norm_squared",
    "sample_grid",
]

CONDUCTIVITY = "conductivity"
POTENTIAL = "potential"
_KINDS = (CONDUCTIVITY, POTENTIAL)


class RadialProfile(Record):
    """Sparse polynomial sum_p value_p * r**p with distinct integer powers >= 0.

    Values follow ``errors.real``: exact rationals, or finite reals taken as
    floats.  Moments are computed exactly either way (every float is a
    dyadic rational).  ``terms`` holds (power, value) pairs in increasing power;
    an exact ``Reconstruction.to_field`` profile builds them on first read.
    """

    _fields = ("terms",)  # no __slots__: the instance dict holds terms and the cached views

    def __init__(self, terms):
        cleaned = []
        seen = set()
        for power, value in terms:
            p = integer(power, 0, "radial powers")
            value = real(value, "radial profile value")
            if p in seen:
                raise DomainError(f"duplicate radial power {p}")
            seen.add(p)
            cleaned.append((p, value))
        cleaned.sort(key=lambda t: t[0])
        self._store(tuple(cleaned))

    @classmethod
    def _from_integers(cls, powers, nums, den):
        """Checked values nums[i] / den at increasing powers[i], reduced by one gcd as ``_common_denominator`` is."""
        self = object.__new__(cls)
        g = math.gcd(den, *nums)
        vars(self).update(_powers=[*powers], _scaled=([n // g for n in nums], den // g))
        return self

    @functools.cached_property
    def terms(self):
        """(power, value) pairs; a profile built by ``_from_integers`` builds its Fractions here, once."""
        nums, den = self._scaled
        return tuple((p, Fraction(n, den)) for p, n in zip(self._powers, nums))

    def __call__(self, r: float) -> float:
        """The value at one radius r, as ``values_at`` computes it."""
        return float(self.values_at(np.array([r], dtype=float))[0])

    def values_at(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r, dtype=float)
        for p, v in self._floats:
            out += v * r**_exponent(p)
        return out

    def _doubles(self) -> list:
        """(power, value as a double) per term: n / D over ``_scaled``, the double float(value) is, so a profile
        built by ``_from_integers`` builds no Fraction.  Writers read them once, uncached."""
        return [*zip(self._powers, quotients(*self._scaled, "radial profile value"))]

    _floats = functools.cached_property(_doubles)  # evaluation reads them at every call

    @functools.cached_property
    def _powers(self):
        return [p for p, _ in self.terms]

    def moment_exact(self, m: int) -> Fraction:  # public; the benchmark's tracer counts it by name
        """integral_0^1 r**m * profile(r) dr, exact: one integer sum over the lcm of the m + p + 1."""
        nums, den = self._scaled
        divisors = [m + p + 1 for p in self._powers]
        common = math.lcm(*divisors)
        return Fraction(sum(n * (common // d) for n, d in zip(nums, divisors)), den * common)

    @functools.cached_property
    def _scaled(self):
        """The values over one common denominator, computed once per profile."""
        return _common_denominator([v for _, v in self.terms])

    def pair_moment_exact(self, other: "RadialProfile") -> Fraction:
        """integral_0^1 profile * other * r dr, exact."""
        return sum(
            (Fraction(v) * Fraction(w) / (p + q + 2) for p, v in self.terms for q, w in other.terms),
            Fraction(0),
        )


_ZERO_PROFILE = RadialProfile(())


def _exponent(p):
    """The power p for float evaluation: inf from 2**1023 on, where r**p is already its limit on [0, 1]
    (0 below r = 1, 1 at r = 1), so a power beyond the double range evaluates too."""
    return p if p < 2**1023 else math.inf


def _common_denominator(values) -> tuple:
    """Python ints n_i and the lcm D of the denominators, with values[i] == n_i / D exactly.

    An int, float or Fraction gives its own ratio; another rational (a numpy integer has no
    ``as_integer_ratio``) goes through Fraction, and its parts are made Python ints, which do not wrap.
    """
    ratios = [v.as_integer_ratio() if isinstance(v, (int, float, Fraction))
              else tuple(map(int, Fraction(v).as_integer_ratio())) for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


class FourierRadialField(Record):
    """Finite trigonometric series with radial-profile coefficients.

    ``cos`` and ``sin`` map each angular order to its profile, in increasing
    order; tables passed in may hold profiles or their (power, value) terms.
    """

    __slots__ = _fields = ("kind", "cos", "sin")

    def __init__(self, kind, cos={}, sin={}):  # the default tables are only read
        if not one_of(kind, _KINDS):
            raise KindMismatchError(f"unknown field kind {kind!r}")
        self._store(kind, _checked_profiles(cos, "cos"), _checked_profiles(sin, "sin"))

    def cos_profile(self, k: int) -> RadialProfile:
        return self.cos.get(k, _ZERO_PROFILE)

    def sin_profile(self, k: int) -> RadialProfile:
        return self.sin.get(k, _ZERO_PROFILE)


def _checked_profiles(profiles, parity):
    """The profiles in increasing order; every key is checked before any two are compared."""
    least = _least_order(parity)
    checked = [(integer(k, least, f"{parity} orders"), p if isinstance(p, RadialProfile) else RadialProfile(p))
               for k, p in profiles.items()]
    return dict(sorted(checked))  # distinct int keys: no two profiles are compared


def _least_order(parity) -> int:
    """The least angular order of a parity, 0 for 'cos' and 1 for 'sin'; any other parity is a DomainError."""
    if not one_of(parity, ("cos", "sin")):
        raise DomainError(f"parity must be 'cos' or 'sin', got {parity!r}")
    return 0 if parity == "cos" else 1


def eval_field(field, r: float, phi: float) -> float:
    """Value at one polar point (r, phi), read by ``_polar_point``: ``eval_field_grid`` there, field or callable."""
    r, phi = _polar_point(r, phi)
    return float(_grid_values(field, np.full((1, 1), r), np.full((1, 1), phi))[0, 0])


def eval_field_grid(field, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Values on the tensor grid r x phi, shape (len(r), len(phi)).

    Two-dimensional r and phi of one shape are a matched grid instead.  A plain
    callable field(r, phi) acting on arrays is called with r and phi as they
    broadcast (a column of radii and a row of angles for a tensor grid).
    The points follow ``_polar_points``.
    """
    return _grid_values(field, *_polar_points(r, phi, grid=True))


def _grid_values(field, r, phi):
    """``eval_field_grid`` on float arrays r and phi that are already checked and broadcastable."""
    shape = np.broadcast_shapes(r.shape, phi.shape)
    if not isinstance(field, FourierRadialField):
        if not callable(field):
            raise DomainError(f"cannot evaluate field of type {type(field).__name__}")
        return np.broadcast_to(np.asarray(field(r, phi), dtype=float), shape).copy()
    out = np.zeros(shape)
    for trig, table in ((np.cos, field.cos), (np.sin, field.sin)):
        for k, prof in table.items():
            out += prof.values_at(r) * trig(k * phi)
    return out


def _polar_points(r, phi, grid=False) -> tuple:
    """r and phi as float arrays of shapes that broadcast (callers broadcast them), else a ShapeError.

    With ``grid``, two of at most one axis are a column of radii and a row of
    angles.  An entry that is not a real number (``errors.real_array``), a
    radius outside [0, 1] or a NaN or infinite angle is a DomainError.
    """
    r, phi = real_array(r, "radius"), real_array(phi, "angle")
    inside = (r >= 0.0) & (r <= 1.0)
    if not inside.all():
        raise DomainError(f"radius {float(r[~inside].flat[0])} outside [0, 1]")
    if not np.isfinite(phi).all():
        raise DomainError(f"angle {float(phi[~np.isfinite(phi)].flat[0])} is not finite")
    if grid and r.ndim < 2 and phi.ndim < 2:
        r, phi = r.reshape(-1, 1), phi.reshape(1, -1)
    try:
        np.broadcast_shapes(r.shape, phi.shape)
    except ValueError:
        raise ShapeError(f"radius shape {r.shape} and angle shape {phi.shape} do not broadcast") from None
    return r, phi


def _polar_point(r, phi) -> tuple:
    """One point of ``_polar_points`` as two floats; arrays of any other shape than () are a DomainError."""
    r, phi = _polar_points(r, phi)
    if r.ndim or phi.ndim:
        raise DomainError(f"a point is one radius and one angle, not arrays of shapes {r.shape}, {phi.shape}")
    return float(r), float(phi)


def moment(field: FourierRadialField, parity: str, k: int, m: int) -> float:
    """integral_0^1 r**m * profile(r) dr for the (parity, k) profile.

    Exact rational arithmetic internally; a single rounding on return.
    """
    prof = _parity_profile(field, parity, k)
    return double(prof.moment_exact(integer(m, 0, "moment powers m")), "the moment")


def l2_norm_squared(field: FourierRadialField) -> float:
    """Squared L^2 norm over the unit disk.

    Angular orthogonality gives
    pi * (2 * I[a_0^2] + sum_{k>=1} (I[a_k^2] + I[b_k^2])) with I[f] = integral f r dr.
    """
    total = 2 * field.cos_profile(0).pair_moment_exact(field.cos_profile(0))
    for table in (field.cos, field.sin):
        for k, prof in table.items():
            if k >= 1:
                total += prof.pair_moment_exact(prof)
    norm = math.pi * double(total, "the squared L^2 norm")
    if norm == math.inf:  # a sum within the double range that pi carries beyond it
        raise DomainError("the squared L^2 norm is beyond the range of a double")
    return norm


def sample_grid(field, nr: int, nphi: int, span: float = 2.0 * math.pi) -> np.ndarray:
    """Cartesian samples on a polar tensor grid, one row (x, y, value) per node.

    ``field`` is a FourierRadialField or a callable (r, phi) acting on arrays,
    such as a reconstruction.  Radii are the nr equispaced levels i/nr,
    i = 1..nr; angles are the nphi equispaced values span * j / nphi,
    j = 0..nphi-1 (span 2 pi: the disk, pi: the upper half disk).  Rows are
    emitted in row-major order with the radius as the outer loop.  A value
    beyond the range of a double is a DomainError.
    """
    nr, nphi = integer(nr, 1, "grid sizes"), integer(nphi, 1, "grid sizes")
    r = np.arange(1, nr + 1) / nr
    phi = double(span, "span") * np.arange(nphi) / nphi
    with np.errstate(over="ignore", invalid="ignore"):
        values = eval_field_grid(field, r, phi)
    if not np.all(np.isfinite(values)):
        raise DomainError("field values beyond the range of a double on the grid")
    x = np.outer(r, np.cos(phi))
    y = np.outer(r, np.sin(phi))
    return np.column_stack([x.ravel(), y.ravel(), values.ravel()])


def _parity_profile(field, parity, k):
    k = integer(k, _least_order(parity), f"{parity} orders")
    return field.cos_profile(k) if parity == "cos" else field.sin_profile(k)
