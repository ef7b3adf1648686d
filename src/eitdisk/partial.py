"""Reconstruction from data on part of the boundary.

Half-disk problem: on the upper half disk with sine modes f_n = sin(n phi)
(which vanish on the diameter), even reflection of a cosine-series field gamma
identifies the incomplete data with full-disk data,

    2 <data f_n, f_k> = n k pi zeta_{nk} integral_0^1 r^{n+k-1} a_{|n-k|}(r) dr,

so doubling the measured matrix and running the cosine moment pipeline
recovers gamma's cosine profiles on the half disk.

Arc problem: for data supported on the arc [pi/2 - alpha, pi/2 + alpha], the
conformal map psi (see ``conformal``) transplants the problem to the half
disk: transplanted modes have the same boundary data, and

    <data f, g> = integral over half disk of gamma(psi(x)) grad u_f . grad u_g dx.

Inverting the half-disk problem therefore recovers gamma . psi, and composing
with psi^{-1} evaluates gamma itself anywhere in the disk, up to the two arc
endpoint images where the inverse map is singular (the evaluator returns 0
inside a 1e-9 guard ring around them).
"""

from __future__ import annotations

import math

import numpy as np

from .conformal import ConformalMap, _psi_array, psi_inverse
from .errors import DomainError, InconsistentDataError, RangeError
from .fields import CONDUCTIVITY, eval_field_grid
from .inverse import (
    MomentData,
    Reconstruction,
    ValidationCheck,
    ValidationReport,
    condition_sums,
    _check_tol,
    _polar_points,
    solve_moment_problem,
)
from .quadrature import QuadratureSpec, gauss_legendre_01, polar_moments, trapezoid_closed

__all__ = [
    "HalfDiskData",
    "ArcReconstruction",
    "half_disk_forward_oracle",
    "half_disk_data",
    "half_disk_invert",
    "arc_forward_oracle",
    "arc_data",
    "arc_invert",
]

HALF_DISK_QUAD = QuadratureSpec(64, 512)
ARC_QUAD = QuadratureSpec(64, 1024)  # composition with psi breaks trig-poly exactness
_ENDPOINT_GUARD = 1e-9


class HalfDiskData:
    """Symmetric matrix of sine-mode data <data f_n, f_k>, n, k = 1..N."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DomainError("half-disk data must be a square matrix")
        self.values = arr

    @property
    def N(self) -> int:
        return self.values.shape[0]


def _sine_data(field, N, quad, cmap=None):
    """N x N sine-mode energy data on the upper half disk, of field . psi with ``cmap``.

    One field pass; as sin(n phi) sin(k phi) + cos(n phi) cos(k phi) = cos((n-k) phi),
    entry (n, k) is n k times the polar moment of power n+k-1, cosine order |n-k|.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    r, wr = gauss_legendre_01(quad.n_r)
    phi, wphi = trapezoid_closed(quad.n_phi, 0.0, math.pi)
    if cmap is None:
        values = eval_field_grid(field, r, phi)
    else:
        w = _psi_array(cmap, np.outer(r, np.exp(1j * phi)))
        values = eval_field_grid(field, np.minimum(np.abs(w), 1.0), np.angle(w))
    mc, _ = polar_moments(values, r, wr, phi, wphi, 2 * N - 1, N - 1)
    n = np.arange(1, N + 1)
    return np.outer(n, n) * mc[n[:, None] + n - 1, np.abs(n[:, None] - n)]


def half_disk_forward_oracle(field, n: int, k: int, quad: QuadratureSpec = HALF_DISK_QUAD) -> float:
    """Quadrature of the energy integral over the upper half disk.

    integral of field * grad(r^n sin(n phi)) . grad(r^k sin(k phi)), with
    n, k >= 1.  ``field`` may be a FourierRadialField or a callable (r, phi)
    acting on arrays.
    """
    if n < 1 or k < 1:
        raise DomainError("sine mode frequencies must be >= 1")
    return float(_sine_data(field, max(n, k), quad)[n - 1, k - 1])


def half_disk_data(field, N: int, quad: QuadratureSpec = HALF_DISK_QUAD) -> HalfDiskData:
    """Full N x N sine-mode data matrix, the field evaluated once on the grid."""
    return HalfDiskData(_sine_data(field, N, quad))


def half_disk_invert(
    data,
    N: int | None = None,
    tol: float = 1e-9,
    reg_cap: int | None = None,
) -> Reconstruction:
    """Cosine-profile reconstruction on the half disk from sine-mode data.

    Doubles the data (undoing the even reflection), reads off the weighted
    moments and solves per angular order.  Asymmetry beyond ``tol`` raises
    ``InconsistentDataError``; a NaN or negative ``tol`` is a DomainError.
    """
    _check_tol(tol)
    if not isinstance(data, HalfDiskData):
        data = HalfDiskData(data)
    if N is None:
        N = data.N
    if not 1 <= N <= data.N:
        raise RangeError(f"truncation N={N} outside data range 1..{data.N}")
    if reg_cap is not None and reg_cap < 0:
        raise DomainError("reg_cap must be >= 0")
    arr = data.values
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite data fails the check
        dev = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    report = ValidationReport(
        kind="half-disk",
        tol=tol,
        checks=(ValidationCheck(name="data_symmetric", deviation=dev, passed=dev <= tol),),
    )
    if not report.passed:
        raise InconsistentDataError(report)
    sym = arr / 2.0 + arr.T / 2.0  # rounds as (arr + arr.T) / 2, cannot overflow

    p = {}
    for k in range(N):
        values = tuple(
            sym[m, m + k] / ((m + 1) * (m + 1 + k) * math.pi) * 2.0
            for m in range(N - k)
        )
        coeffs = solve_moment_problem(
            MomentData(k=k, parity="cos", values=values, origin_shift=1)
        )
        if reg_cap is not None:
            coeffs = coeffs[: reg_cap + 1]
        p[k] = coeffs
    condition = {k: condition_sums(k, len(p[k])) for k in p if p[k]}
    return Reconstruction(kind=CONDUCTIVITY, N=N, p=p, q={}, condition=condition)


def arc_forward_oracle(
    field,
    n: int,
    k: int,
    cmap: ConformalMap,
    quad: QuadratureSpec = ARC_QUAD,
) -> float:
    """Energy data of transplanted arc modes via half-disk quadrature.

    Evaluates the disk-side field at psi(x) and integrates against the
    half-disk sine-mode gradients; this equals the arc boundary data of the
    transplanted modes.
    """
    if n < 1 or k < 1:
        raise DomainError("sine mode frequencies must be >= 1")
    return float(_sine_data(field, max(n, k), quad, cmap)[n - 1, k - 1])


def arc_data(field, cmap: ConformalMap, N: int, quad: QuadratureSpec = ARC_QUAD) -> HalfDiskData:
    """Full N x N transplanted-mode data matrix, one psi and field pass on the grid."""
    return HalfDiskData(_sine_data(field, N, quad, cmap))


class ArcReconstruction:
    """Disk-side evaluator: half-disk reconstruction composed with psi^{-1}.

    Called on arrays r, phi it maps the points back to the half disk in one
    pass and evaluates the base reconstruction there; points within 1e-9 of
    an arc endpoint image read 0.
    """

    __slots__ = ("base", "cmap")

    def __init__(self, base: Reconstruction, cmap: ConformalMap):
        self.base = base
        self.cmap = cmap

    def __call__(self, r, phi) -> np.ndarray:
        """Values at polar points (r, phi) in the unit disk, arrays of broadcastable shapes."""
        r, phi = _polar_points(r, phi)
        z = r * (np.cos(phi) + 1j * np.sin(phi))
        e_lo, e_hi = self.cmap.endpoints
        keep = (np.abs(z - e_lo) > _ENDPOINT_GUARD) & (np.abs(z - e_hi) > _ENDPOINT_GUARD)
        w = psi_inverse(self.cmap, z[keep])  # the guard keeps it off its singular points
        out = np.zeros(z.shape)
        out[keep] = self.base(np.minimum(np.abs(w), 1.0),
                              np.clip(np.arctan2(w.imag, w.real), 0.0, math.pi))
        return out

    def evaluate(self, r: float, phi: float) -> float:
        """Value at polar (r, phi) in the unit disk; 0 inside the endpoint guard."""
        return float(self(r, phi))


def arc_invert(
    data,
    cmap: ConformalMap,
    N: int | None = None,
    tol: float = 1e-9,
    reg_cap: int | None = None,
) -> ArcReconstruction:
    """Invert transplanted arc data and return the composed disk evaluator."""
    base = half_disk_invert(data, N=N, tol=tol, reg_cap=reg_cap)
    return ArcReconstruction(base=base, cmap=cmap)
