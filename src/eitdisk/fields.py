"""Sparse polynomial radial profiles and trigonometric-series fields on the disk.

A field is gamma(r, phi) = sum_k a_k(r) cos(k phi) + sum_k b_k(r) sin(k phi)
with polynomial radial profiles; the k = 0 cosine term carries no extra 1/2
factor (profiles are stored exactly as they appear in the series).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import DomainError, KindMismatchError, integer, real

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


@dataclass(frozen=True)
class RadialProfile:
    """Sparse polynomial sum_p value_p * r**p with distinct integer powers >= 0.

    Values follow ``errors.real``: exact rationals, or finite reals taken as
    floats.  Moments are computed exactly either way (every float is a
    dyadic rational).
    """

    terms: tuple

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
        object.__setattr__(self, "terms", tuple(cleaned))

    def __call__(self, r: float) -> float:
        return sum(float(v) * r**p for p, v in self.terms)

    def values_at(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r, dtype=float)
        for p, v in self.terms:
            out += float(v) * r**p
        return out

    def moment_exact(self, m: int) -> Fraction:  # public; the benchmark's tracer counts it by name
        """integral_0^1 r**m * profile(r) dr, exact: one integer sum over the lcm of the m + p + 1."""
        nums, den = self._scaled
        divisors = [m + p + 1 for p, _ in self.terms]
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


def _common_denominator(values) -> tuple:
    """Python ints n_i and the lcm D of the denominators, with values[i] == n_i / D exactly."""
    fracs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    den = math.lcm(*(q.denominator for q in fracs))
    return [int(q.numerator) * (den // q.denominator) for q in fracs], den  # a numpy int would wrap


@dataclass(frozen=True)
class FourierRadialField:
    """Finite trigonometric series with radial-profile coefficients."""

    kind: str
    cos: dict = dc_field(default_factory=dict)
    sin: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise KindMismatchError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "cos", _checked_profiles(self.cos, "cos"))
        object.__setattr__(self, "sin", _checked_profiles(self.sin, "sin"))

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
    if parity not in ("cos", "sin"):
        raise DomainError(f"parity must be 'cos' or 'sin', got {parity!r}")
    return 0 if parity == "cos" else 1


def eval_field(field: FourierRadialField, r: float, phi: float) -> float:
    """Pointwise value at polar (r, phi); requires 0 <= r <= 1."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"radius {r} outside [0, 1]")
    total = 0.0
    for trig, table in ((math.cos, field.cos), (math.sin, field.sin)):
        for k, prof in table.items():
            total += prof(r) * trig(k * phi)
    return total


def eval_field_grid(field, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Values on the tensor grid r x phi, shape (len(r), len(phi)).

    Two-dimensional r and phi of one shape are a matched grid instead.  A plain
    callable field(r, phi) acting on arrays is called with r and phi as they
    broadcast (a column of radii and a row of angles for a tensor grid).
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if r.ndim < 2 and phi.ndim < 2:
        r, phi = r.reshape(-1, 1), phi.reshape(1, -1)
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


def moment(field: FourierRadialField, parity: str, k: int, m: int) -> float:
    """integral_0^1 r**m * profile(r) dr for the (parity, k) profile.

    Exact rational arithmetic internally; a single rounding on return.
    """
    prof = _parity_profile(field, parity, k)
    return float(prof.moment_exact(integer(m, 0, "moment powers m")))


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
    return math.pi * float(total)


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
    phi = span * np.arange(nphi) / nphi
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
