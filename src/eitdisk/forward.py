"""Forward boundary-data maps for perturbations on the unit disk.

For a conductivity perturbation gamma the sesquilinear data against harmonic
modes u_n = r^n cos(n phi), r^n sin(n phi) reduce to radial moments:

    K[cc]_{ij} = K[ss]_{ij} = i j pi zeta_{ij} integral r^{i+j-1} a_{|i-j|} dr,
    K[cs]_{ij} = K[sc]_{ji} = i j pi sign(j-i) integral r^{i+j-1} b_{|i-j|} dr,

with zeta = 2 on the diagonal and 1 off it, sign(0) = 0, indices from 1.  For
a potential perturbation c the products of modes give

    J[cc]_{ij} = (pi/2) M_a(i+j) + eta_{ij} (pi/2) M_a(|i-j|),   i, j >= 0,
    J[ss]_{ij} = -(pi/2) M_a(i+j) + xi_{ij} (pi/2) M_a(|i-j|),   i, j >= 1,
    J[sc]_{ij} = (pi/2) M_b(i+j) + sign(i-j) (pi/2) M_b(|i-j|),  i >= 1, j >= 0,
    J[cs]_{ij} = (pi/2) M_b(i+j) - sign(i-j) (pi/2) M_b(|i-j|),  i >= 0, j >= 1,

where M_a(k) = integral r^{i+j+1} a_k dr (same for b), eta = 3 at (0,0),
2 on the rest of the diagonal, 1 elsewhere, and xi = 2 on the diagonal,
1 elsewhere.

Every entry is pi times a rational number in the profile coefficients, so the
assembly keeps exact pi-factored rationals alongside the float view; the
validators and the rational inversion path rely on them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, KindMismatchError, ShapeError
from .fields import CONDUCTIVITY, POTENTIAL, FourierRadialField, eval_field_grid
from .quadrature import QuadratureSpec, gauss_legendre_01, polar_moments, trapezoid_periodic

__all__ = [
    "SCHROEDINGER",
    "BLOCK_NAMES",
    "BoundaryMode",
    "DtnMatrixSet",
    "block_shapes",
    "index_origins",
    "conductivity_dtn",
    "schroedinger_dtn",
    "energy_oracle",
    "oracle_dtn",
]

SCHROEDINGER = "schroedinger"
BLOCK_NAMES = ("cc", "ss", "sc", "cs")
_BLOCK_MODES = {"cc": ("cos", "cos"), "ss": ("sin", "sin"), "sc": ("sin", "cos"), "cs": ("cos", "sin")}


@dataclass(frozen=True)
class BoundaryMode:
    """One harmonic boundary mode: cos(n phi) with n >= 0 or sin(n phi) with n >= 1."""

    parity: str
    frequency: int

    def __post_init__(self):
        if self.parity not in ("cos", "sin"):
            raise DomainError(f"parity must be 'cos' or 'sin', got {self.parity!r}")
        least = 0 if self.parity == "cos" else 1
        if self.frequency < least:
            raise DomainError(f"{self.parity} frequency must be >= {least}")


def block_shapes(kind: str, N: int) -> dict:
    """Row/column counts of the four blocks for a given kind and max frequency."""
    if kind == CONDUCTIVITY:
        return {name: (N, N) for name in BLOCK_NAMES}
    if kind == SCHROEDINGER:
        return {"cc": (N + 1, N + 1), "ss": (N, N), "sc": (N, N + 1), "cs": (N + 1, N)}
    raise KindMismatchError(f"unknown matrix kind {kind!r}")


def index_origins(kind: str) -> dict:
    """First (row, column) frequency of each block."""
    if kind == CONDUCTIVITY:
        return {name: (1, 1) for name in BLOCK_NAMES}
    if kind == SCHROEDINGER:
        return {"cc": (0, 0), "ss": (1, 1), "sc": (1, 0), "cs": (0, 1)}
    raise KindMismatchError(f"unknown matrix kind {kind!r}")


class DtnMatrixSet:
    """The four boundary-data blocks for one perturbation kind.

    ``cc``, ``ss``, ``sc``, ``cs`` are float arrays indexed from the origins in
    ``index_origins(kind)``.  When the set was assembled analytically,
    ``exact`` holds the same blocks as lists of Fractions in units of pi
    (entry = fraction * pi); sets loaded from serialized floats have
    ``exact = None``.
    """

    __slots__ = ("kind", "N", "cc", "ss", "sc", "cs", "exact")

    def __init__(self, kind, N, cc, ss, sc, cs, exact=None):
        if kind not in (CONDUCTIVITY, SCHROEDINGER):
            raise KindMismatchError(f"unknown matrix kind {kind!r}")
        least = 1 if kind == CONDUCTIVITY else 0
        if N < least:
            raise DomainError(f"max frequency {N} too small for kind {kind!r}")
        self.kind = kind
        self.N = int(N)
        shapes = block_shapes(kind, self.N)
        for name, block in (("cc", cc), ("ss", ss), ("sc", sc), ("cs", cs)):
            arr = np.asarray(block, dtype=float)
            if arr.size == 0 and 0 in shapes[name]:
                arr = arr.reshape(shapes[name])
            if arr.shape != shapes[name]:
                raise ShapeError(
                    f"block {name} has shape {arr.shape}, expected {shapes[name]}"
                )
            setattr(self, name, arr)
        if exact is not None:
            for name in BLOCK_NAMES:
                rows, cols = shapes[name]
                table = exact[name]
                if len(table) != rows or any(len(row) != cols for row in table):
                    raise ShapeError(f"exact block {name} shape mismatch")
        self.exact = exact

    def block(self, name: str) -> np.ndarray:
        if name not in BLOCK_NAMES:
            raise ShapeError(f"unknown block {name!r}")
        return getattr(self, name)

    def symmetrized(self) -> "DtnMatrixSet":
        """Project onto the exact structural constraints by averaging.

        cc and ss are symmetrized; cs is averaged with sc^T (and, for the
        conductivity kind, with its own antisymmetry), then sc = cs^T.
        Structurally exact data is returned unchanged up to rounding.
        """
        if self.exact is not None:
            e = self.exact
            half = Fraction(1, 2)
            rows, cols = block_shapes(self.kind, self.N)["cs"]
            ecc = _sym_table(e["cc"], half)
            ess = _sym_table(e["ss"], half)
            ecs = [
                [(e["cs"][i][j] + e["sc"][j][i]) * half for j in range(cols)]
                for i in range(rows)
            ]
            if self.kind == CONDUCTIVITY:
                ecs = _antisym_table(ecs, half)
            esc = [[ecs[j][i] for j in range(rows)] for i in range(cols)]
            return _set_from_exact(self.kind, self.N, {"cc": ecc, "ss": ess, "sc": esc, "cs": ecs})
        # a/2 + b/2 rounds as (a + b)/2 does, but cannot overflow
        cc = self.cc / 2.0 + self.cc.T / 2.0
        ss = self.ss / 2.0 + self.ss.T / 2.0
        cs = self.cs / 2.0 + self.sc.T / 2.0
        if self.kind == CONDUCTIVITY:
            cs = cs / 2.0 - cs.T / 2.0
        sc = cs.T.copy()
        return DtnMatrixSet(self.kind, self.N, cc, ss, sc, cs, exact=None)


def _sym_table(table, half):
    n = len(table)
    return [[(table[i][j] + table[j][i]) * half for j in range(n)] for i in range(n)]


def _antisym_table(table, half):
    n = len(table)
    return [[(table[i][j] - table[j][i]) * half for j in range(n)] for i in range(n)]


def _set_from_exact(kind, N, exact):
    blocks = {}
    for name in BLOCK_NAMES:
        try:
            arr = np.array([[float(q) * math.pi for q in row] for row in exact[name]], dtype=float)
        except OverflowError:
            arr = np.array([math.inf])
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"block {name} has an entry beyond the range of a double")
        blocks[name] = arr.reshape(block_shapes(kind, N)[name])
    return DtnMatrixSet(kind, N, blocks["cc"], blocks["ss"], blocks["sc"], blocks["cs"], exact=exact)


def _sign(d: int) -> int:
    return (d > 0) - (d < 0)


def _moment_tables(field):
    """Exact moments (order, power) of the cos and of the sin profiles, each computed once."""
    return tuple(functools.cache(lambda k, power, profile=profile: profile(k).moment_exact(power))
                 for profile in (field.cos_profile, field.sin_profile))


def conductivity_dtn(field: FourierRadialField, N: int) -> DtnMatrixSet:
    """Assemble the four K blocks for frequencies 1..N, exactly."""
    if field.kind != CONDUCTIVITY:
        raise KindMismatchError(f"expected a conductivity field, got kind {field.kind!r}")
    if N < 1:
        raise DomainError("max frequency N must be >= 1")
    ma, mb = _moment_tables(field)

    def k_cos(i, j):
        zeta = 2 if i == j else 1
        return i * j * zeta * ma(abs(i - j), i + j - 1)

    def k_sin(i, j):
        s = _sign(j - i)
        if s == 0:
            return Fraction(0)
        return i * j * s * mb(abs(i - j), i + j - 1)

    rng = range(1, N + 1)
    qcc = [[k_cos(i, j) for j in rng] for i in rng]
    qcs = [[k_sin(i, j) for j in rng] for i in rng]
    qsc = [[qcs[j - 1][i - 1] for j in rng] for i in rng]  # formula gives sc = cs^T
    exact = {"cc": qcc, "ss": [row[:] for row in qcc], "sc": qsc, "cs": qcs}
    return _set_from_exact(CONDUCTIVITY, N, exact)


def schroedinger_dtn(field: FourierRadialField, N: int) -> DtnMatrixSet:
    """Assemble the four J blocks for frequencies up to N (cos from 0), exactly."""
    if field.kind != POTENTIAL:
        raise KindMismatchError(f"expected a potential field, got kind {field.kind!r}")
    if N < 0:
        raise DomainError("max frequency N must be >= 0")
    half = Fraction(1, 2)
    ma, mb = _moment_tables(field)

    def j_cc(i, j):
        eta = 3 if i == j == 0 else (2 if i == j else 1)
        return half * ma(i + j, i + j + 1) + eta * half * ma(abs(i - j), i + j + 1)

    def j_ss(i, j):
        xi = 2 if i == j else 1
        return -half * ma(i + j, i + j + 1) + xi * half * ma(abs(i - j), i + j + 1)

    def j_sc(i, j):
        return half * mb(i + j, i + j + 1) + _sign(i - j) * half * mb(abs(i - j), i + j + 1)

    def j_cs(i, j):
        return half * mb(i + j, i + j + 1) - _sign(i - j) * half * mb(abs(i - j), i + j + 1)

    qcc = [[j_cc(i, j) for j in range(N + 1)] for i in range(N + 1)]
    qss = [[j_ss(i, j) for j in range(1, N + 1)] for i in range(1, N + 1)]
    qsc = [[j_sc(i, j) for j in range(N + 1)] for i in range(1, N + 1)]
    qcs = [[j_cs(i, j) for j in range(1, N + 1)] for i in range(N + 1)]
    exact = {"cc": qcc, "ss": qss, "sc": qsc, "cs": qcs}
    return _set_from_exact(SCHROEDINGER, N, exact)


def energy_oracle(
    field: FourierRadialField,
    f: BoundaryMode,
    g: BoundaryMode,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Independent quadrature of the volume integral behind one matrix entry.

    Conductivity kind: integral over the disk of field * grad(u_f) . grad(u_g);
    potential kind: integral of field * u_f * u_g.  Here u is the harmonic
    extension r^n cos(n phi) or r^n sin(n phi) of the boundary mode.  Uses
    tensor Gauss-Legendre x periodic-trapezoid quadrature in polar coordinates,
    through the same kernel as ``oracle_dtn``.
    """
    mc, ms = _disk_moments(field, f.frequency + g.frequency, quad)
    return float(_mode_product(field.kind, mc, ms, f.parity, f.frequency, g.parity, g.frequency))


def oracle_dtn(field: FourierRadialField, N: int, quad: QuadratureSpec = QuadratureSpec()) -> DtnMatrixSet:
    """All four blocks by the quadrature of ``energy_oracle``, as a float set.

    The field is evaluated once on the polar grid and every entry is read off
    one table of weighted polar moments, at O(R Phi N) + O(R N^2) cost.
    """
    kind = CONDUCTIVITY if field.kind == CONDUCTIVITY else SCHROEDINGER
    shapes, origins = block_shapes(kind, N), index_origins(kind)
    blocks = {}
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mc, ms = _disk_moments(field, 2 * N, quad)
        for name, (rp, cp) in _BLOCK_MODES.items():
            (rows, cols), (r0, c0) = shapes[name], origins[name]
            blocks[name] = [[_mode_product(field.kind, mc, ms, rp, r0 + i, cp, c0 + j)
                             for j in range(cols)] for i in range(rows)]
    if not all(np.all(np.isfinite(b)) for b in blocks.values()):
        raise DomainError("quadrature oracle has an entry beyond the range of a double")
    return DtnMatrixSet(kind, N, **blocks)


def _disk_moments(field, top, quad):
    """``polar_moments`` of the field on the full-disk grid, angular orders up to ``top``."""
    r, wr = gauss_legendre_01(quad.n_r)
    phi, wphi = trapezoid_periodic(quad.n_phi)
    return polar_moments(eval_field_grid(field, r, phi), r, wr, phi, wphi, top + 1, top)


def _mode_product(kind, mc, ms, fp, n, gp, k):
    """One entry read off the polar moments by product-to-sum identities.

    grad u_f . grad u_g = n k r^(n+k-2) cos((n-k) phi) for equal parities and
    +-n k r^(n+k-2) sin((n-k) phi) (sin-cos +, cos-sin -); u_f u_g = r^(n+k)/2
    times cos((n-k) phi) +- cos((n+k) phi) or sin((n+k) phi) +- sin((n-k) phi).
    """
    d, s = abs(n - k), _sign(n - k)
    if kind == CONDUCTIVITY:
        if n == 0 or k == 0:
            return 0.0
        if fp == gp:
            return n * k * mc[n + k - 1, d]
        return (1 if fp == "sin" else -1) * s * n * k * ms[n + k - 1, d]
    p = n + k + 1
    if fp == gp:
        return 0.5 * (mc[p, d] + (1 if fp == "cos" else -1) * mc[p, n + k])
    return 0.5 * (ms[p, n + k] + (1 if fp == "sin" else -1) * s * ms[p, d])
