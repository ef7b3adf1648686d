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
from .errors import DomainError, InconsistentDataError, ShapeError, integer, real_array
from .fields import CONDUCTIVITY, FourierRadialField, _polar_points, eval_field_grid
from .forward import _mode_product, conductivity_dtn
from .inverse import (  # solve_moment_problem: re-exported, the benchmark's tracer patches this binding
    Reconstruction,
    ValidationCheck,
    ValidationReport,
    _check_tol,
    _dev,
    _invert,
    _truncation,
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

# n_phi is the finest angular level of the data builders (``_levels``).
# Composition with psi breaks trig-poly exactness: a field . psi that is not
# even in phi converges only as O(h^2), so the arc needs the higher cap.
HALF_DISK_QUAD = QuadratureSpec(64, 512)
ARC_QUAD = QuadratureSpec(64, 1024)
_ENDPOINT_GUARD = 1e-9


class HalfDiskData:
    """Symmetric matrix of sine-mode data <data f_n, f_k>, n, k = 1..N."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = real_array(values, "half-disk data entry")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ShapeError("half-disk data must be a square matrix")
        self.values = arr

    @property
    def N(self) -> int:
        return self.values.shape[0]


def _samples(field, r, phi, cmap):
    """Field values on the grid r x phi, of field . psi with ``cmap``."""
    if cmap is None:
        return eval_field_grid(field, r, phi)
    w = _psi_array(cmap, np.outer(r, np.exp(1j * phi)))
    return eval_field_grid(field, np.minimum(np.abs(w), 1.0), np.angle(w))


def _levels(field, N, n_phi):
    """Angular levels, in intervals, of the closed trapezoid for ``field``.

    A FourierRadialField takes n_phi.  A callable takes the coarsest halving
    of n_phi with at least max(32, 4N) intervals, its double and n_phi.
    """
    if isinstance(field, FourierRadialField):
        return [n_phi]
    first = n_phi
    while first % 2 == 0 and first // 2 >= max(32, 4 * N):
        first //= 2
    return sorted({first, min(2 * first, n_phi), n_phi})


def _sine_data(field, N, quad, cmap=None):
    """N x N sine-mode energy data on the upper half disk, of field . psi with ``cmap``.

    As sin(n phi) sin(k phi) + cos(n phi) cos(k phi) = cos((n-k) phi), entry
    (n, k) is n k times the polar moment of power n+k-1, cosine order |n-k|.
    The levels of ``_levels`` are nested: each samples only the nodes the
    last did not.  The data stop at a level that moves no entry by more than
    1e-13 of its largest, or at the last, whose nodes, values and moments
    are the single grid's.
    """
    N = integer(N, 1, "sine mode frequencies")
    r, wr = gauss_legendre_01(quad.n_r)
    n = np.arange(1, N + 1)
    values = data = None
    for size in _levels(field, N, quad.n_phi):
        phi, wphi = trapezoid_closed(size, 0.0, math.pi)
        if values is None:
            values = _samples(field, r, phi, cmap)
        else:  # every step-th node is the coarser level's, bit for bit
            new = np.ones(size + 1, dtype=bool)
            new[:: size // (values.shape[1] - 1)] = False
            coarse, values = values, np.empty((r.size, size + 1))
            values[:, ~new] = coarse
            values[:, new] = _samples(field, r, phi[new], cmap)
        mc, _ = polar_moments(values, r, wr, phi, wphi, 2 * N - 1, N - 1)
        finer = _mode_product(CONDUCTIVITY, mc, None, "sin", n[:, None], "sin", n)
        if data is not None and np.max(np.abs(finer - data)) <= 1e-13 * np.max(np.abs(finer)):
            return finer
        data = finer
    return data


def half_disk_forward_oracle(  # public; the tests and the benchmark's tracer call it by name
        field, n: int, k: int, quad: QuadratureSpec = HALF_DISK_QUAD) -> float:
    """Quadrature of the energy integral over the upper half disk.

    integral of field * grad(r^n sin(n phi)) . grad(r^k sin(k phi)), with
    integers n, k >= 1.  ``field`` may be a FourierRadialField, sampled at
    ``quad.n_phi`` (for a cosine-only one, a check of the exact data), or a
    callable (r, phi) acting on arrays, on the levels of ``half_disk_data``.
    """
    n, k = integer(n, 1, "sine mode frequencies"), integer(k, 1, "sine mode frequencies")
    return float(_sine_data(field, max(n, k), quad)[n - 1, k - 1])


def half_disk_data(field, N: int, quad: QuadratureSpec = HALF_DISK_QUAD) -> HalfDiskData:
    """Full N x N sine-mode data matrix.

    A cosine-only FourierRadialField, of either kind, is read on no grid: by
    the reflection identity its data are half the cc block ``conductivity_dtn``
    assembles exactly from its cosine profiles.  One with sine terms is sampled
    at ``quad.n_phi``.  A callable is sampled at the coarsest halving with at
    least max(32, 4N) intervals and at its double; if no entry moves by more
    than 1e-13 of the largest, the data stop there, else the remaining nodes
    of ``quad.n_phi`` are sampled in one call.  No node is evaluated twice;
    features that fall between the nodes sampled go unseen.  N >= 1.
    """
    N = integer(N, 1, "sine mode frequencies")
    if isinstance(field, FourierRadialField) and not field.sin:
        return HalfDiskData(conductivity_dtn(FourierRadialField(CONDUCTIVITY, field.cos), N).cc / 2)
    return HalfDiskData(_sine_data(field, N, quad))


def half_disk_invert(
    data,
    N: int | None = None,
    tol: float = 1e-9,
    reg_cap: int | None = None,
) -> Reconstruction:
    """Cosine-profile reconstruction on the half disk from sine-mode data.

    Reads the moments off the data as those of a conductivity cc block, in
    integers over one denominator, doubles the numerators (undoing the even
    reflection) and solves them as ``reconstruct`` does, after the same checks
    of ``reg_cap`` and N.  Asymmetry beyond ``tol`` is an
    ``InconsistentDataError``, a NaN or negative ``tol`` a DomainError.
    """
    _check_tol(tol)
    if not isinstance(data, HalfDiskData):
        data = HalfDiskData(data)
    N, reg_cap = _truncation(data.N, N, 1, reg_cap)
    rows = data.values.tolist()
    dev = _dev(rows, zip(*rows))
    if not dev <= tol:  # NaN included
        check = ValidationCheck(name="data_symmetric", deviation=dev, passed=False)
        raise InconsistentDataError(ValidationReport(kind="half-disk", tol=tol, checks=(check,)))
    sym = (data.values / 2.0 + data.values.T / 2.0).tolist()  # (arr + arr.T) / 2 without overflow
    return _invert(CONDUCTIVITY, N, (sym, None, None, None, 1), False, False, reg_cap, scale=2)


def arc_forward_oracle(  # public; the tests and the benchmark's tracer call it by name
    field,
    n: int,
    k: int,
    cmap: ConformalMap,
    quad: QuadratureSpec = ARC_QUAD,
) -> float:
    """Energy data of transplanted arc modes via half-disk quadrature.

    Evaluates the disk-side field at psi(x) and integrates against the
    half-disk sine-mode gradients; this equals the arc boundary data of the
    transplanted modes.  Entry (n, k) of ``arc_data`` at N = max(n, k), on
    the same angular levels; n, k are integers >= 1.
    """
    n, k = integer(n, 1, "sine mode frequencies"), integer(k, 1, "sine mode frequencies")
    return float(_sine_data(field, max(n, k), quad, _checked_map(cmap))[n - 1, k - 1])


def arc_data(field, cmap: ConformalMap, N: int, quad: QuadratureSpec = ARC_QUAD) -> HalfDiskData:
    """Full N x N transplanted-mode data matrix.

    A FourierRadialField is sampled once at ``quad.n_phi``: composed with psi
    it is not even in phi and converges only as O(h^2), hence the high cap.
    A callable takes the same two levels and the cap as in
    ``half_disk_data``, psi and the callable evaluated once per node sampled.
    """
    return HalfDiskData(_sine_data(field, N, quad, _checked_map(cmap)))


def _checked_map(cmap) -> ConformalMap:
    """``cmap`` if it is a ConformalMap, else a DomainError."""
    if not isinstance(cmap, ConformalMap):
        raise DomainError(f"cmap must be a ConformalMap, not {type(cmap).__name__}")
    return cmap


class ArcReconstruction:
    """Disk-side evaluator: half-disk reconstruction composed with psi^{-1}.

    Called on arrays r, phi it maps the points back to the half disk in one
    pass and evaluates the base reconstruction there; points within 1e-9 of
    an arc endpoint image read 0.
    """

    __slots__ = ("base", "cmap")

    def __init__(self, base: Reconstruction, cmap: ConformalMap):
        self.base = base
        self.cmap = _checked_map(cmap)

    def __call__(self, r, phi) -> np.ndarray:
        """Values at polar points (r, phi) in the unit disk, arrays of broadcastable shapes."""
        r, phi = _polar_points(r, phi)
        z = r * (np.cos(phi) + 1j * np.sin(phi))
        e_lo, e_hi = self.cmap.endpoints
        keep = (np.abs(z - e_lo) > _ENDPOINT_GUARD) & (np.abs(z - e_hi) > _ENDPOINT_GUARD)
        w = psi_inverse(self.cmap, z[keep])  # the guard keeps it off its singular points
        out = np.zeros(z.shape)
        out[keep] = self.base._values(np.minimum(np.abs(w), 1.0),
                                      np.clip(np.arctan2(w.imag, w.real), 0.0, math.pi))
        return out

    def evaluate(self, r: float, phi: float) -> float:
        """Value at polar (r, phi), two real numbers, in the unit disk; 0 inside the endpoint guard."""
        value = self(r, phi)  # its points are checked here once
        if value.ndim:
            raise DomainError(f"a point is one radius and one angle, not arrays of shape {value.shape}")
        return float(value)


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
