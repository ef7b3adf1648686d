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
assembly keeps the exact entries, in units of pi, as integers over one common
denominator: the set's one store, which the validators and the inversion read
and from which its float blocks are rounded.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping, Sequence
from fractions import Fraction

import numpy as np

from .errors import DomainError, KindMismatchError, Record, ShapeError, integer, one_of, rational, real_array
from .fields import (CONDUCTIVITY, POTENTIAL, FourierRadialField, _common_denominator, _least_order,
                     eval_field_grid)
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


class BoundaryMode(Record):
    """One harmonic boundary mode: cos(n phi) with n >= 0 or sin(n phi) with n >= 1."""

    __slots__ = _fields = ("parity", "frequency")

    def __init__(self, parity, frequency):
        integer(frequency, _least_order(parity), f"{parity} frequencies")
        self._store(parity, frequency)


def block_shapes(kind: str, N: int) -> dict:
    """Row/column counts of the four blocks for a given kind and max frequency N, from their origins."""
    return {name: (N + 1 - r0, N + 1 - c0) for name, (r0, c0) in index_origins(kind).items()}


def index_origins(kind: str) -> dict:
    """First (row, column) frequency of each block."""
    if _checked_kind(kind) == CONDUCTIVITY:
        return {name: (1, 1) for name in BLOCK_NAMES}
    return {"cc": (0, 0), "ss": (1, 1), "sc": (1, 0), "cs": (0, 1)}


def _checked_kind(kind) -> str:
    """``kind`` if it is a matrix-set kind (conductivity or schroedinger), else a KindMismatchError."""
    if not one_of(kind, (CONDUCTIVITY, SCHROEDINGER)):
        raise KindMismatchError(f"unknown matrix kind {kind!r}")
    return kind


class DtnMatrixSet:
    """The four boundary-data blocks for one perturbation kind.

    ``cc``, ``ss``, ``sc``, ``cs`` are float arrays indexed from the origins in
    ``index_origins(kind)``; an entry passed in that is not a real number is a
    DomainError (``errors.real_array``).  An exact set, assembled analytically
    or given ``exact=`` tables of rationals (not bools) in units of pi
    (entry = fraction * pi) and no float blocks, has one store, an integer
    view: the four blocks as integer numerators over one common denominator,
    which the validation, projection and inversion read.  Its read-only float
    blocks and ``exact`` (new lists of Fractions at each read) are built from
    it on first read.  Sets loaded from serialized floats have ``exact = None``.
    """

    __slots__ = ("kind", "N", "_floats", "_exact", "_ints", "_deviations")

    def __init__(self, kind, N, cc=None, ss=None, sc=None, cs=None, exact=None):
        self.kind = _checked_kind(kind)
        self.N = integer(N, 1 if kind == CONDUCTIVITY else 0, "max frequency N")
        shapes = block_shapes(kind, self.N)
        self._floats, self._exact, self._ints, self._deviations = {}, None, None, None  # _deviations: validate's
        if exact is None:
            for name, block in zip(BLOCK_NAMES, (cc, ss, sc, cs)):
                arr = real_array(block, f"block {name} entry")
                if arr.size == 0 and 0 in shapes[name]:
                    arr = arr.reshape(shapes[name])
                if arr.shape != shapes[name]:
                    raise ShapeError(f"block {name} has shape {arr.shape}, expected {shapes[name]}")
                self._floats[name] = arr
            return
        if any(block is not None for block in (cc, ss, sc, cs)):
            raise DomainError("an exact set's float blocks are built from its exact= tables; pass exact= alone")
        exact = exact if isinstance(exact, Mapping) else {}  # not a mapping: every block is missing
        if extra := [name for name in exact if name not in BLOCK_NAMES]:
            raise ShapeError(f"unknown exact block {extra[0]!r}")
        for name in BLOCK_NAMES:
            (rows, cols), table = shapes[name], exact.get(name)
            if not isinstance(table, (Sequence, np.ndarray)) or len(table) != rows or any(
                    not isinstance(row, (Sequence, np.ndarray)) or len(row) != cols for row in table):
                raise ShapeError(f"exact block {name} is not a table of {rows} rows of {cols} entries")
            if bad := [q for row in table for q in row if not rational(q)]:
                raise DomainError(f"exact block {name} has an entry that is not rational: {bad[0]!r}")
        nums, den = _common_denominator([q for name in BLOCK_NAMES for row in exact[name] for q in row])
        nums = iter(nums)
        self._ints = {name: [[next(nums) for _ in row] for row in exact[name]] for name in BLOCK_NAMES}, den

    @property
    def exact(self):
        """The blocks as new lists of the cached Fractions in units of pi, or None for a float set."""
        if self._exact is None and self._ints is not None:
            blocks, den = self._ints
            self._exact = {name: [[Fraction(n, den) for n in row] for row in blocks[name]] for name in BLOCK_NAMES}
        return None if self._exact is None else {name: [*map(list, table)] for name, table in self._exact.items()}

    cc, ss, sc, cs = (property(lambda self, name=name: self.block(name)) for name in BLOCK_NAMES)

    def __getstate__(self):  # a copy or pickle of an exact set rebuilds its read-only blocks from the view
        return None, {name: {} if name == "_floats" and self._ints else getattr(self, name) for name in self.__slots__}

    def block(self, name: str) -> np.ndarray:
        """One block.  An exact set's is n / D * pi from its view, int / int rounded once (as float(Fraction(n, D))
        is), built read-only on first read, or cc's array or cs's transposed if its table is theirs (two threads
        may both build it; they get equal read-only arrays)."""
        if name in self._floats:
            return self._floats[name]
        if name not in BLOCK_NAMES:
            raise ShapeError(f"unknown block {name!r}")
        tables, den = self._ints
        if name == "ss" and tables["ss"] == tables["cc"]:
            arr = self.block("cc")
        elif name == "sc" and [*map(tuple, tables["sc"])] == [*zip(*tables["cs"])]:
            arr = self.block("cs").T
        else:
            try:
                arr = np.array([[n / den * math.pi for n in row] for row in tables[name]])
            except OverflowError:
                arr = np.array([math.inf])
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"block {name} has an entry beyond the range of a double")
            arr = arr.reshape(block_shapes(self.kind, self.N)[name])
            arr.flags.writeable = False
        self._floats[name] = arr
        return arr

    def symmetrized(self) -> "DtnMatrixSet":
        """Project onto the exact structural constraints by averaging.

        cc and ss are symmetrized; cs is averaged with sc^T (and, for the
        conductivity kind, with its own antisymmetry), then sc = cs^T.
        Structurally exact data is returned unchanged up to rounding.
        """
        if self._ints is not None:
            # an average sums two numerators and doubles the denominator; the
            # conductivity cs is averaged twice, so cc and ss are doubled again
            e, den = self._ints
            twice = 2 if self.kind == CONDUCTIVITY else 1
            rows, cols = block_shapes(self.kind, self.N)["cs"]
            ecc, ess = ([[twice * (t[i][j] + t[j][i]) for j in range(len(t))] for i in range(len(t))]
                        for t in (e["cc"], e["ss"]))
            ecs = [[e["cs"][i][j] + e["sc"][j][i] for j in range(cols)] for i in range(rows)]
            if twice == 2:
                ecs = [[ecs[i][j] - ecs[j][i] for j in range(rows)] for i in range(rows)]
            return _set_from_integers(self.kind, self.N, ecc, ess, ecs, 2 * twice * den)
        # a/2 + b/2 rounds as (a + b)/2 does, but cannot overflow
        cc = self.cc / 2.0 + self.cc.T / 2.0
        ss = self.ss / 2.0 + self.ss.T / 2.0
        cs = self.cs / 2.0 + self.sc.T / 2.0
        if self.kind == CONDUCTIVITY:
            cs = cs / 2.0 - cs.T / 2.0
        return DtnMatrixSet(self.kind, self.N, cc, ss, cs.T.copy(), cs)


def _set_from_integers(kind, N, cc, ss, cs, den):
    """An exact set from integer numerators over ``den`` in units of pi, with sc = cs^T; reading its
    float blocks here makes an entry beyond the double range a DomainError here."""
    mset = object.__new__(DtnMatrixSet)
    mset.kind, mset.N, mset._floats, mset._exact, mset._deviations = kind, N, {}, None, None
    mset._ints = {"cc": cc, "ss": ss, "sc": [list(col) for col in zip(*cs)], "cs": cs}, den
    for name in BLOCK_NAMES:
        mset.block(name)
    return mset


def _moment_vectors(field, powers):
    """Integer numerators of the moments read, one {k: vector} table per parity, and their denominator.

    Entry t of order k's vector is the moment integral r^m a_k dr at the t-th
    m of the range ``powers(k)``.  The values of those profiles go over one
    common denominator D and the moments over the lcm L of the divisors
    m + p + 1 that occur, so a moment is sum_p n_p (L // (m + p + 1)) / (D L).
    The T terms of a profile whose powers step as the m do (every span field
    and every ``to_field`` profile) read one Hankel row of quotients, and
    moment t is the dot product of the scaled values with row[t:t + T]; any
    other profile adds each term along its whole range.
    """
    used = [{k: prof for k, prof in table.items() if powers(k)} for table in (field.cos, field.sin)]
    den = math.lcm(*(prof._scaled[1] for table in used for prof in table.values()))
    ranges = [{k: _divisor_ranges(powers(k), prof._powers) for k, prof in table.items()}
              for table in used]
    divisors = set().union(*(r for table in ranges for spans in table.values() for r in spans))
    lcm = math.lcm(*divisors)
    quotient = {d: lcm // d for d in divisors}
    tables = []
    for table, spans in zip(used, ranges):
        tables.append(vectors := {})
        for k, prof in table.items():
            nums, d = prof._scaled
            scaled, count = [n * (den // d) for n in nums], len(powers(k))
            columns = [map(quotient.__getitem__, r) for r in spans[k]]
            if len(columns) == 1:  # a Hankel row, or one term
                row, width = [*columns[0]], len(scaled)
                vectors[k] = [sum(map(operator.mul, scaled, row[t:t + width])) for t in range(count)]
            else:
                vectors[k] = [0] * count
                for n, column in zip(scaled, columns):
                    vectors[k] = [*map(operator.add, vectors[k], map(n.__mul__, column))]
    return tables, den * lcm


def _divisor_ranges(ms, ps):
    """The divisors m + p + 1 read: one Hankel row if the powers ps step as the m do, else a range per power."""
    if ps and ps == [*range(ps[0], ps[0] + len(ps) * ms.step, ms.step)]:
        return [range(ms.start + ps[0] + 1, ms.stop + ps[-1] + 1, ms.step)]
    return [range(ms.start + p + 1, ms.stop + p + 1, ms.step) for p in ps]


def _diagonal_table(vectors, size, sign, weighted):
    """A size x size table, counted from 0, with moment i of order k < size at (i, i + k) and sign
    times it at (i + k, i): doubled on the diagonal (zeta, xi), times (i + 1)(i + k + 1) if weighted."""
    table = [[0] * size for _ in range(size)]
    for k, vec in vectors.items():
        if k < size:
            for i, v in enumerate(vec):
                q = (i + 1) * (i + k + 1) * v if weighted else v
                if k:
                    table[i][i + k], table[i + k][i] = q, sign * q
                else:
                    table[i][i] = 2 * q
    return table


def conductivity_dtn(field: FourierRadialField, N: int) -> DtnMatrixSet:
    """Assemble the four K blocks for frequencies 1..N, exactly."""
    if field.kind != CONDUCTIVITY:
        raise KindMismatchError(f"expected a conductivity field, got kind {field.kind!r}")
    N = integer(N, 1, "max frequency N")
    # entry (i, j) reads the moment (|i - j|, i + j - 1), moment min(i, j) - 1 of its order
    (ma, mb), den = _moment_vectors(field, lambda k: range(k + 1, 2 * N - k, 2))
    qcc = _diagonal_table(ma, N, 1, True)
    return _set_from_integers(CONDUCTIVITY, N, qcc, qcc, _diagonal_table(mb, N, -1, True), den)


def schroedinger_dtn(field: FourierRadialField, N: int) -> DtnMatrixSet:
    """Assemble the four J blocks for frequencies up to N (cos from 0), exactly."""
    if field.kind != POTENTIAL:
        raise KindMismatchError(f"expected a potential field, got kind {field.kind!r}")
    N = integer(N, 0, "max frequency N")

    def powers(k):  # entry (i, j) reads the moments (i + j, i + j + 1) and (|i - j|, i + j + 1)
        return range(k + 1, 2 * N - k + 2, 2) if k <= N else range(k + 1, k + 2 if k <= 2 * N else 0)

    (ma, mb), den = _moment_vectors(field, powers)
    # the |i - j| moment is moment min(i, j) of its order, the i + j one moment 0 of its order
    da, db = _diagonal_table(ma, N + 1, 1, False), _diagonal_table(mb, N + 1, -1, False)
    ha, hb = ([m[s][0] if s in m else 0 for s in range(2 * N + 1)] for m in (ma, mb))
    full, tail = range(N + 1), range(1, N + 1)
    qcc = [[ha[i + j] + da[i][j] for j in full] for i in full]
    qcc[0][0] += ha[0]  # eta = 3 at (0, 0)
    qss = [[da[i][j] - ha[i + j] for j in tail] for i in tail]
    qcs = [[hb[i + j] + db[i][j] for j in tail] for i in full]
    # every entry is half a sum of two moments
    return _set_from_integers(SCHROEDINGER, N, qcc, qss, qcs, 2 * den)


def energy_oracle(  # public; the tests and the benchmark's tracer call it by name
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

    The field is evaluated once on the polar grid and every block is read off
    one table of weighted polar moments, at O(R Phi N) + O(R N^2) cost.
    """
    kind = CONDUCTIVITY if field.kind == CONDUCTIVITY else SCHROEDINGER
    N = integer(N, 1 if kind == CONDUCTIVITY else 0, "max frequency N")
    shapes, origins = block_shapes(kind, N), index_origins(kind)
    blocks = {}
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mc, ms = _disk_moments(field, 2 * N, quad)
        for name, (rp, cp) in _BLOCK_MODES.items():
            (rows, cols), (r0, c0) = shapes[name], origins[name]
            blocks[name] = _mode_product(field.kind, mc, ms, rp, r0 + np.arange(rows)[:, None],
                                         cp, c0 + np.arange(cols))
    if not all(np.all(np.isfinite(b)) for b in blocks.values()):
        raise DomainError("quadrature oracle has an entry beyond the range of a double")
    return DtnMatrixSet(kind, N, **blocks)


def _disk_moments(field, top, quad):
    """``polar_moments`` of the field on the full-disk grid, angular orders up to ``top``."""
    r, wr = gauss_legendre_01(quad.n_r)
    phi, wphi = trapezoid_periodic(quad.n_phi)
    return polar_moments(eval_field_grid(field, r, phi), r, wr, phi, wphi, top + 1, top)


def _mode_product(kind, mc, ms, fp, n, gp, k):
    """Entries read off the polar moments by product-to-sum identities, for integer n, k that broadcast.

    grad u_f . grad u_g = n k r^(n+k-2) cos((n-k) phi) for equal parities and
    +-n k r^(n+k-2) sin((n-k) phi) (sin-cos +, cos-sin -); u_f u_g = r^(n+k)/2
    times cos((n-k) phi) +- cos((n+k) phi) or sin((n+k) phi) +- sin((n-k) phi).
    """
    d, s = np.abs(n - k), np.sign(n - k)
    if kind == CONDUCTIVITY:  # the gradient of a zero-frequency mode vanishes
        if fp == gp:
            return np.where(n * k == 0, 0.0, n * k * mc[n + k - 1, d])
        return np.where(n * k == 0, 0.0, (1 if fp == "sin" else -1) * s * n * k * ms[n + k - 1, d])
    p = n + k + 1
    if fp == gp:
        return 0.5 * (mc[p, d] + (1 if fp == "cos" else -1) * mc[p, n + k])
    return 0.5 * (ms[p, n + k] + (1 if fp == "sin" else -1) * s * ms[p, d])
