"""Conformal transplantation between the upper half disk and the unit disk.

``psi = sigma . theta`` maps the closed upper half disk onto the closed unit
disk, sending the upper semicircle onto the boundary arc
[pi/2 - alpha, pi/2 + alpha] and the diameter onto the complementary arc:

    theta(z)  = ((1+z)^2 - i (1-z)^2) / ((1+z)^2 + i (1-z)^2),
    sigma(z)  = e^{i mu} (z - w) / (conj(w) z - 1),  mu = pi,
    w         = -i cos(alpha) / (1 + sin(alpha)).

theta fixes -1, 1, i; sigma is a disk automorphism chosen so that psi also
fixes i and sends +-1 to the arc endpoints e^{i(pi/2 -+ alpha)}.  The inverse
factors through a square root,

    psi^{-1} = theta0^{-1} . sqrt . theta2^{-1} . sigma^{-1},
    theta0^{-1}(z) = (z - 1)/(z + 1),   theta2^{-1}(z) = i (1 + z)/(1 - z),

where the square root takes arguments in (-pi/2, 3pi/2] to half angles, i.e.
its branch cut lies on the negative imaginary axis.  That keeps roundoff just
below the negative real axis on the correct sheet.  The derivative of psi
vanishes only at +-1, whose images are the arc endpoints; evaluating the
inverse there raises ``SingularPointError``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, Record, SingularPointError, real, real_array

__all__ = ["ArcSpec", "ConformalMap", "psi", "psi_inverse"]

_BOUNDARY_FUZZ = 1e-12


class ArcSpec(Record):
    """Boundary arc [pi/2 - alpha, pi/2 + alpha] with opening half-angle alpha, a real stored as a float."""

    __slots__ = _fields = ("alpha",)

    def __init__(self, alpha):
        alpha = real(alpha, "alpha")
        if not 0.0 < alpha < math.pi / 2.0:
            raise DomainError(f"alpha must lie in (0, pi/2), got {alpha}")
        self._store(float(alpha))

    @property
    def interval(self) -> tuple:
        return (math.pi / 2.0 - self.alpha, math.pi / 2.0 + self.alpha)


class ConformalMap:
    """The half-disk-to-disk map psi for one arc opening, an ArcSpec or its alpha."""

    __slots__ = ("arc", "w")

    def __init__(self, arc):
        if not isinstance(arc, ArcSpec):
            arc = ArcSpec(arc)
        self.arc = arc
        alpha = arc.alpha
        self.w = complex(0.0, -math.cos(alpha) / (1.0 + math.sin(alpha)))

    @property
    def alpha(self) -> float:
        return self.arc.alpha

    @property
    def endpoints(self) -> tuple:
        """Images of +1 and -1: the two arc endpoints on the unit circle."""
        lo, hi = self.arc.interval
        return (cmath.exp(1j * lo), cmath.exp(1j * hi))


def _theta(z):
    p = (1.0 + z) ** 2
    q = (1.0 - z) ** 2
    return (p - 1j * q) / (p + 1j * q)


def _sigma(cmap, z):
    # e^{i pi} (z - w)/(conj(w) z - 1) = (z - w)/(1 - conj(w) z)
    w = cmap.w
    return (z - w) / (1.0 - w.conjugate() * z)


def _sigma_inv(cmap, z):
    w = cmap.w
    return (z + w) / (1.0 + w.conjugate() * z)


def _branch_sqrt(z):
    """Square root with branch cut on the negative imaginary axis."""
    a = np.angle(z)
    a = np.where(a <= -0.5 * math.pi, a + 2.0 * math.pi, a)
    return np.sqrt(np.abs(z)) * np.exp(0.5j * a)


def _psi_array(cmap, z):
    return _sigma(cmap, _theta(np.asarray(z, dtype=complex)))


def _psi_inverse_array(cmap, z):
    s = _sigma_inv(cmap, np.asarray(z, dtype=complex))
    t = 1j * (1.0 + s) / (1.0 - s)
    u = _branch_sqrt(t)
    return (u - 1.0) / (u + 1.0)


def _points(z):
    """z as a complex array by ``errors.real_array``'s rule; a point with a NaN or infinite part is a DomainError."""
    arr = real_array(z, "point", complex)
    finite = np.isfinite(arr)
    if not finite.all():
        raise DomainError(f"point {complex(arr[~finite].flat[0])} is not finite")
    return arr


def psi(cmap: ConformalMap, z):
    """Map points of the closed upper half disk into the closed unit disk.

    Accepts a complex scalar or array and returns the same shape.
    """
    arr = _points(z)
    if np.any(np.abs(arr) > 1.0 + _BOUNDARY_FUZZ) or np.any(arr.imag < -_BOUNDARY_FUZZ):
        raise DomainError("point outside the closed upper half disk")
    out = _psi_array(cmap, arr)
    return complex(out) if np.isscalar(z) or arr.ndim == 0 else out


def psi_inverse(cmap: ConformalMap, z):
    """Map points of the closed unit disk back to the upper half disk.

    The arc endpoints are critical values of psi; within 1e-12 of either
    endpoint the inverse is refused with ``SingularPointError``.  Accepts a
    complex scalar or array and returns the same shape.
    """
    arr = _points(z)
    if np.any(np.abs(arr) > 1.0 + _BOUNDARY_FUZZ):
        raise DomainError("point outside the closed unit disk")
    e_lo, e_hi = cmap.endpoints
    if np.any(np.abs(arr - e_lo) <= _BOUNDARY_FUZZ) or np.any(np.abs(arr - e_hi) <= _BOUNDARY_FUZZ):
        raise SingularPointError("arc endpoint image; the inverse map is singular there")
    out = _psi_inverse_array(cmap, arr)
    return complex(out) if np.isscalar(z) or arr.ndim == 0 else out
