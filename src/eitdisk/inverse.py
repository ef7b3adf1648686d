"""Moment extraction, structural validation and reconstruction from boundary data.

The diagonals of the data blocks carry weighted radial moments of the field's
angular profiles.  Writing d_m for the moment integral r^{2m+k+1} * profile dr
(m = 0, 1, ...), the conductivity blocks give

    d_m = K[cc]_{i, i+k} / (i (i+k) pi),   i = m + 1   (cosine profiles),
    d_m = K[cs]_{i, i+k} / (i (i+k) pi),   i = m + 1   (sine profiles, k >= 1),

and the potential blocks give, with i = m,

    d_0 = J[cc]_{0,0} / pi                       (k = 0),
    d_0 = J[cc]_{k,0} / pi                       (k >= 1; the ss term of the
                                                  pencil vanishes identically),
    d_m = (J[cc] + J[ss])_{m, m+k} / pi,  m >= 1 (cosine),
    d_0 = (J[cs]_{0,k} + J[sc]_{k,0}) / (2 pi)   (sine; the two entries are
                                                  equal by self-adjointness,
                                                  each one alone is the moment),
    d_m = (J[cs] - J[sc])_{m, m+k} / pi,  m >= 1 (sine).

Solving the moment problem against the weighted orthogonal family LM^k_n turns
each moment vector into coefficients p_n via the exact closed-form inverse of
the triangular moment matrix.  The recovered k = 0 profile belongs to the
series convention with a leading 1/2, so it is halved before the field is
reported in the package's plain-series convention.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction

import numpy as np

from .errors import (DomainError, InconsistentDataError, KindMismatchError, RangeError, Record, double, integer,
                     quotients, rational, real)
from .fields import (CONDUCTIVITY, POTENTIAL, FourierRadialField, RadialProfile, _common_denominator,
                     _least_order, _polar_point, _polar_points)
from .forward import SCHROEDINGER, DtnMatrixSet, _checked_kind
from .muntz import (  # inverse_matrix: re-exported, the benchmark's tracer patches it here
    WeightedFamily,
    _integer_rows,
    _jacobi_constants,
    _jacobi_sum,
    build_weighted_family,
    inverse_matrix,
)

__all__ = [
    "MomentData",
    "ValidationCheck",
    "ValidationReport",
    "Reconstruction",
    "validate",
    "extract_conductivity_moments",
    "extract_schroedinger_moments",
    "solve_moment_problem",
    "condition_sums",
    "reconstruct",
    "admissibility",
    "extra_hankel_moments",
]


class MomentData(Record):
    """Weighted radial moments of one angular profile.

    values[m] = integral_0^1 r^{2m+k+1} profile(r) dr.  origin_shift records
    the first mode index the data came from (1 for conductivity blocks, 0 for
    potential blocks); the solve itself is shift-independent.  Values follow
    ``errors.real``: exact rationals, or finite reals taken as floats.
    """

    __slots__ = _fields = ("k", "parity", "values", "origin_shift")

    def __init__(self, k, parity, values, origin_shift):
        _least_order(parity)
        k = integer(k, 0, "angular order k")
        if origin_shift not in (0, 1):
            raise DomainError("origin_shift must be 0 or 1")
        self._store(k, parity, tuple(real(v, "moment value") for v in values), origin_shift)


class ValidationCheck(Record):
    """One structural check: its name, the deviation found and whether it is within tolerance."""

    __slots__ = _fields = ("name", "deviation", "passed")

    def __init__(self, name, deviation, passed):
        self._store(name, deviation, passed)


class ValidationReport(Record):
    """The checks of one matrix set of a kind, against tolerance ``tol``."""

    __slots__ = _fields = ("kind", "tol", "checks")

    def __init__(self, kind, tol, checks):
        self._store(kind, tol, checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return float(_max_nan(c.deviation for c in self.checks))

    def lines(self):
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            yield f"{c.name}: deviation {c.deviation:.17g} [{status}]"


def validate(mset: DtnMatrixSet, tol: float = 1e-9) -> ValidationReport:
    """Check the structural identities the blocks must satisfy.

    Conductivity: cc and ss symmetric and equal to each other, cs = sc^T,
    cs antisymmetric (zero diagonal included).

    Potential: cc and ss symmetric, cs = sc^T, sc - cs antisymmetric on the
    overlapping index range i, j >= 1; cc - ss and sc + cs constant along
    anti-diagonals there (Hankel), each anti-diagonal i + j = l tied to the
    single-frequency entries cc[0][l] and sc[l][0] when those exist.

    These checks constrain every entry except cc[0][0], cc[N][N] and
    ss[N][N], which carry moments witnessed nowhere else in the set.

    Sets assembled analytically carry exact rational blocks and report
    deviation exactly 0; float-loaded data is checked in floating point.
    Exact blocks are checked on the set's integer numerators over one common
    denominator, and each deviation is divided by it once (the double nearest
    the exact value, in units of pi) and multiplied by pi, so an exact set and
    its float document deviate alike.  A NaN or negative ``tol`` is a DomainError.
    An exact set keeps its deviations, which depend on no tolerance, and is
    scanned once; a float set, whose blocks are writable arrays, every time.
    """
    _check_tol(tol)
    devs = mset._deviations or _deviations(mset)
    if mset._ints is not None:  # read from the integer view, which nothing changes
        mset._deviations = devs
    checks = tuple(ValidationCheck(name=name, deviation=dev, passed=dev <= tol) for name, dev in devs)
    return ValidationReport(kind=mset.kind, tol=tol, checks=checks)


def _deviations(mset) -> tuple:
    """(name, deviation) of each check of ``validate``, as doubles; an exact set's are multiplied by pi."""
    cc, ss, sc, cs, den = _blocks(mset)
    unit = 1.0 if mset._ints is None else math.pi
    checks = []

    def add(name, dev):
        try:
            dev = dev / den * unit  # int / int rounds once, as float(Fraction) does
        except OverflowError:  # beyond the double range: a failed check
            dev = math.inf
        checks.append((name, dev))

    add("cc_symmetric", _dev(cc, zip(*cc)))
    add("ss_symmetric", _dev(ss, zip(*ss)))
    add("cs_matches_sc_transpose", _dev(cs, zip(*sc)))
    if mset.kind == CONDUCTIVITY:
        add("cc_matches_ss", _dev(cc, ss))
        add("cs_antisymmetric", _dev(cs, zip(*cs), operator.add))
    else:
        # overlapping range i, j >= 1: drop column 0 of sc and row 0 of cs
        diff = [list(map(operator.sub, a, b)) for a, b in zip((row[1:] for row in sc), cs[1:])]
        add("sc_minus_cs_antisymmetric", _dev(diff, zip(*diff), operator.add))
        groups = _hankel_groups(cc, ss, sc, cs, mset.N).values()
        add("ss_minus_cc_hankel", _group_spread(g for g, _ in groups))  # same spread as cc - ss
        add("sc_plus_cs_hankel", _group_spread(g for _, g in groups))
    return tuple(checks)


def _blocks(mset, floats=False):
    """cc, ss, sc, cs and D: integer numerators over D of an exact set, or lists of floats and 1."""
    ints = None if floats else mset._ints
    if ints is None:
        return (*(b.tolist() for b in (mset.cc, mset.ss, mset.sc, mset.cs)), 1)
    blocks, den = ints
    return (*(blocks[n] for n in ("cc", "ss", "sc", "cs")), den)


def _check_tol(tol):
    if not double(tol, "tolerance") >= 0:
        raise DomainError(f"tolerance must be >= 0, got {tol}")


def _max_nan(values):
    """max() that returns NaN if an item is NaN; plain max() may drop it.

    The items are all exact or all floats, so only a float maximum needs the scan.
    """
    values = list(values)
    top = max(values, default=0)
    if isinstance(top, float) and any(v != v for v in values):
        return math.nan
    return top


def _dev(a, b, op=operator.sub):
    """Largest |op(x, y)| over entries x, y of the rows of a and b; NaN if one is NaN.

    Floats always subtract, so equal infinities deviate by NaN.
    """
    return _max_nan([g for ra, rb in zip(a, b) for g in map(abs, map(op, ra, rb))])


def _hankel_groups(cc, ss, sc, cs, N, first=2) -> dict:
    """{l: (entries of cc - ss, entries of sc + cs)} along the anti-diagonals i + j = l, l = first..2N.

    Indices are true frequencies i, j >= 1, in increasing i; for l <= N each
    group ends with the single-frequency entry it must also agree with,
    cc[0][l] or sc[l-1][0].  The blocks are those of ``_blocks``.
    """
    groups = {}
    for l in range(first, 2 * N + 1):
        diagonal = range(max(1, l - N), min(N, l - 1) + 1)
        cos = [cc[i][l - i] - ss[i - 1][l - i - 1] for i in diagonal]
        sin = [sc[i - 1][l - i] + cs[i][l - i - 1] for i in diagonal]
        if l <= N:
            cos.append(cc[0][l])
            sin.append(sc[l - 1][0])
        groups[l] = cos, sin
    return groups


def _group_spread(groups):
    """Largest max - min over the groups; singletons impose no constraint."""
    return _max_nan(_max_nan(g) - min(g) for g in groups if len(g) > 1)


# extract_*: public, and traced by name; reconstruct reads _moments itself
def extract_conductivity_moments(mset: DtnMatrixSet, k: int, parity: str = "cos") -> MomentData:
    """Read the weighted moments of the order-k profile off the K blocks."""
    return _extract(mset, CONDUCTIVITY, k, parity)


def extract_schroedinger_moments(mset: DtnMatrixSet, k: int, parity: str = "cos") -> MomentData:
    """Read the weighted moments of the order-k profile off the J blocks."""
    return _extract(mset, SCHROEDINGER, k, parity)


def _extract(mset, kind, k, parity):
    """The order-k moments of a set of the given kind: Fractions of an exact set, floats otherwise."""
    if mset.kind != kind:
        raise KindMismatchError(f"expected a {kind} set, got {mset.kind!r}")
    least, k = _least_order(parity), integer(k, 0, "angular order k")
    shift = 1 if kind == CONDUCTIVITY else 0
    if not least <= k <= mset.N - shift:
        raise RangeError(f"order k={k} outside {parity} range for N={mset.N}")
    exact = mset._ints is not None
    values = _exact_or_rounded(*_moments(kind, _blocks(mset), exact, mset.N, k, parity), exact)
    return MomentData(k=k, parity=parity, values=tuple(values), origin_shift=shift)


def _moments(kind, blocks, exact, N, k, parity):
    """Order-k moments up to truncation N, each a block entry (or a sum of two) over divisor * pi.

    Integer numerators over one denominator: exact from exact ``_blocks``, else the lift of
    each double entry / (divisor * pi), checked by ``errors.real``.  See the module docstring.
    """
    cc, ss, sc, cs, den = blocks
    tail = range(1, N - k + 1)
    if kind == CONDUCTIVITY:
        block = cc if parity == "cos" else cs
        entries, divisors = [block[i - 1][i + k - 1] for i in tail], [i * (i + k) for i in tail]
    elif parity == "cos":  # cc[k][0] is cc[0][0] at k = 0
        entries = [cc[k][0], *(cc[i][i + k] + ss[i - 1][i + k - 1] for i in tail)]
        divisors = [1] * len(entries)
    else:  # the two entries of the first moment are equal by self-adjointness
        entries = [cs[0][k - 1] + sc[k - 1][0], *(cs[i][i + k - 1] - sc[i - 1][i + k] for i in tail)]
        divisors = [2, *(1 for _ in tail)]
    if not exact:
        return _common_denominator([real(e / (d * math.pi), "moment value") for e, d in zip(entries, divisors)])
    scale = math.lcm(*divisors)
    return [e * (scale // d) for e, d in zip(entries, divisors)], den * scale


def solve_moment_problem(data: MomentData) -> list:
    """Coefficients p_n of the profile in the LM^k basis from its moments.

    Exact input (``errors.rational``) gives exact rational output.  Float
    input is lifted to exact dyadic rationals, pushed through the same exact
    solver rows and rounded once per coefficient, at the cost of the exact
    solve; the solver row sums reach 1e6 by n = 7, so rounding the individual
    products would already cost ~1e-10 per term.
    """
    nums, den = _common_denominator(data.values)
    return _exact_or_rounded(_solve(data.k, nums), den, all(map(rational, data.values)))


def _solve(k, nums) -> list:
    """Coefficient numerators over the moments' denominator: one integer dot product per solver row."""
    return [row.scale * sum(map(operator.mul, row.coeffs, nums)) for row in _integer_rows(k, len(nums))]


def _exact_or_rounded(nums, den, exact) -> list:
    """Fractions n / den, or doubles each rounded once; a value beyond the double range is a DomainError."""
    if exact:
        return [Fraction(n, den) for n in nums]
    return quotients(nums, den, "a reconstructed coefficient")


def condition_sums(k: int, count: int) -> list:  # public; the benchmark's tracer spans it by name
    """Row sums sum_l |R_{n,l}| of the exact solver, n = 0..count-1.

    Growth with n measures how strongly the moment inversion amplifies data
    errors at depth n.
    """
    k, count = integer(k, 0, "angular order k"), integer(count, 1, "count")
    return [row.condition for row in _integer_rows(k, count)]


# Angles whose trigonometric rows one reconstruction keeps for ``evaluate``: the
# most angles a command-line grid has (``cli.MAX_GRID``).  Rows are stored under
# the lock, so threads sharing a reconstruction keep the cap; readers take none.
_ANGLE_ROWS = 1024
_ANGLE_LOCK = threading.Lock()


class Reconstruction:
    """Profile coefficients p (cosine) and q (sine) per angular order.

    p[k][n] multiplies LM^k_n; the k = 0 series carries a conventional 1/2.
    ``condition[k]`` holds the solver row sums used for diagnostics.  Each
    parity's series are kept as one view {k: (numerators, D, exact)}, which
    every reader but p and q reads.  ``kind`` is a matrix-set kind, ``N`` is
    checked by ``errors.integer`` with the kind's least value (as in
    ``DtnMatrixSet``) and each condition row by ``errors.real``; tables
    passed in are checked (keys by ``errors.integer``, least 0 for p and 1 for
    q, coefficients by ``errors.real``) and lifted into it;
    p and q are those tables, or for a solve are built from the view on first
    read (n / D is each double itself; -0.0 reads as 0.0).

    Calling the reconstruction on arrays r, phi evaluates it there through the
    Jacobi recurrence (see ``muntz._jacobi_sum``), from a float table built on
    the first call; the exact LM families are built only for ``family``.
    """

    __slots__ = ("kind", "N", "_pq", "_ints", "condition", "_table", "_last_radius", "_angle_index", "_rows")

    def __init__(self, kind, N, p, q, condition):
        self.kind = _checked_kind(kind)
        self.N = integer(N, 1 if kind == CONDUCTIVITY else 0, "max frequency N")
        self.condition = {k: [real(c, "condition sum") for c in row] for k, row in condition.items()}
        self._pq = [p, q]  # the caller's tables, or None where a solve's p or q is not built yet
        self._ints = [{integer(k, _least_order(parity), "angular order k"): _series(c) for k, c in t.items()}
                      for parity, t in zip(("cos", "sin"), self._pq)]
        self._table = self._last_radius = self._rows = None
        self._angle_index = {}  # angle phi -> the index of its row of cos(k phi), then sin(k phi), in _rows

    p = property(lambda self: self._coefficients(0), doc="Cosine coefficients per order.")
    q = property(lambda self: self._coefficients(1), doc="Sine coefficients per order.")

    def _coefficients(self, parity):
        if self._pq[parity] is None:
            self._pq[parity] = {k: _exact_or_rounded(*v) for k, v in self._ints[parity].items()}
        return self._pq[parity]

    def _floats(self) -> list:
        """p and q as doubles: n / D from the view, float(c) with no Fraction built."""
        return [{k: _exact_or_rounded(nums, den, False) for k, (nums, den, _) in v.items()} for v in self._ints]

    def family(self, k: int) -> WeightedFamily:
        depth = max(len(view[k][0]) if k in view else 0 for view in self._ints)
        if not depth:
            raise KeyError(k)
        return build_weighted_family(k, depth - 1)

    def __call__(self, r, phi) -> np.ndarray:
        """Values at polar points (r, phi), arrays of broadcastable shapes.

        Radial rows are computed per element of r and trigonometric rows per
        element of phi before the two broadcast, so a column of radii against
        a row of angles runs the recurrence once per radius.
        """
        return self._values(*_polar_points(r, phi))

    def _values(self, r, phi):
        """``__call__`` on float arrays r and phi that are already checked."""
        radial, weight = self._radial(r[..., None])
        return np.asarray((radial * (weight * self._trig(phi[..., None]))).sum(axis=-1))

    def evaluate(self, r: float, phi: float) -> float:
        """Pointwise value at one polar point (r, phi), read as ``fields._polar_point`` reads it.

        Points on the last radius reuse its radial rows, and points at an angle
        seen before reuse that angle's row of cosines, then sines; the first
        1024 distinct nonzero angles are kept (a polar grid has at most that
        many) in one table read by index, later ones are computed per point.
        A row is stored under a lock; readers and the pass take none.  A point
        multiplies a fresh copy of its angle's row by r**k, then by the radial
        sums, and adds it up by one ``np.add.reduce``.  Once a radius has had
        two points and one per four stored angles, the next at a stored angle
        makes one pass: every stored row at once, each summed as the 1-D reduce
        sums it, so values stay bit-identical to ``__call__``; later points
        there read it.  A new radius passes at its first stored angle if the
        radius before had points at half the stored angles since its pass (or
        in all), so a grid's later circles compute no point on their own and
        only one point after a full circle wastes its pass.  A pass costs 50-130
        ns per angle at N = 8-24, a point 1.3 us (2-vCPU VM).
        """
        if not (type(r) is type(phi) is float and 0.0 <= r <= 1.0 and math.isfinite(phi)):
            r, phi = _polar_point(r, phi)  # plain floats in range skip the array checks
        last = self._last_radius  # one tuple, so concurrent callers see a matching set
        if last is None or last[0] != r or not r:  # 0.0 == -0.0, but odd powers differ in sign
            due = last is not None and 0 < len(self._angle_index) <= 2 * last[3][0]
            # the radius, its radial sums and powers, and [points since its pass, values at stored angles]
            last = self._last_radius = (r, *self._radial(r), [_ANGLE_ROWS if due else 0, ()])
        batch = last[3]
        batch[0] += 1  # not under the lock: a count lost to another thread only moves a pass
        index = self._angle_index.get(phi) if phi else None  # ±0.0 are not kept: equal, but their sines differ
        if index is None:
            row = self._angle_row(phi)
        else:
            values = batch[1]  # read once: a pass of another thread may replace it by a shorter one
            if index < len(values):
                return values[index]
            if batch[0] > 1 and batch[0] >= len(self._angle_index) >> 2:
                return self._batch(last)[index]
            row = self._rows[index]  # every table published since the index holds its row there
        trig = row * last[2]  # fresh, so the stored rows are only read
        trig *= last[1]
        return float(np.add.reduce(trig))

    def _trig(self, phi):
        """cos(k phi), then sin(k phi), one per series, along the last axis of phi * k."""
        _, _, ks, ncos = self._table  # built by the first _radial call
        trig = phi * ks
        np.cos(trig[..., :ncos], out=trig[..., :ncos])
        np.sin(trig[..., ncos:], out=trig[..., ncos:])
        return trig

    def _angle_row(self, phi):
        """The trigonometric row of a new angle; kept while fewer than 1024 are."""
        row = self._trig(phi)
        if phi and len(self._angle_index) < _ANGLE_ROWS:
            with _ANGLE_LOCK:  # checked again: another thread may have stored a row since
                n = len(self._angle_index)
                if n < _ANGLE_ROWS and phi not in self._angle_index:
                    if self._rows is None or n == len(self._rows):  # double: rows [:n] are copied before publishing
                        rows = np.empty((min(max(2 * n, 64), _ANGLE_ROWS), row.size))
                        if n:
                            rows[:n] = self._rows
                        self._rows = rows
                    self._rows[n] = row
                    self._angle_index[phi] = n  # last: an index is read only once its row is stored
        return row

    def _batch(self, last):
        """The values at radius ``last[0]`` of every stored angle, in storage order, kept in ``last``."""
        rows = self._rows[: len(self._angle_index)]  # table, then count: an older table is shorter, all written
        values = rows * last[2]
        values *= last[1]
        values = np.add.reduce(values, axis=1).tolist()
        last[3][:] = 0, values
        return values

    def _radial(self, r):
        """Radial sums and powers r**k, one per series, at a float radius r or at radii r with a trailing axis."""
        coeffs, constants, ks, _ = self._series_table()
        return _jacobi_sum(coeffs, constants, 2.0 * r * r - 1.0), r**ks

    def _series_table(self):
        """Float coefficients (k = 0 half folded in), one column per nonempty series.

        Built on the first call.  Cosine series come first; returns
        (coefficients of shape (depth, series), recurrence constants, orders,
        number of cosine series).
        """
        if self._table is not None:
            return self._table
        p, q = self._floats()
        series = [(k, 0.5 if k == 0 else 1.0, c) for k, c in p.items() if c]
        ncos = len(series)
        series += [(k, 1.0, c) for k, c in q.items() if c]
        depth = max((len(c) for _, _, c in series), default=1)
        coeffs = np.zeros((depth, len(series)))
        for s, (_, scale, c) in enumerate(series):
            coeffs[: len(c), s] = [scale * v for v in c]
        ks = np.array([k for k, _, _ in series], dtype=float)
        self._table = coeffs, _jacobi_constants(ks, depth), ks, ncos
        return self._table

    def to_field(self) -> FourierRadialField:
        """Expand the LM series into monomial radial profiles.

        The k = 0 profile is halved so the result follows the plain-series
        convention used by the field type.  Each series expands from its
        view's numerators, exact when the series is (its profile builds Fractions
        only when its terms are read), else rounded once per monomial
        coefficient.  The view's keys and values were checked when it was
        built, so the profiles and the field are built without checking them again.
        """
        cos, sin = ({k: _monomial_profile(k, nums, 2 * den if parity == k == 0 else den, exact)
                     for k, (nums, den, exact) in sorted(v.items()) if nums} for parity, v in enumerate(self._ints))
        kind = CONDUCTIVITY if self.kind == CONDUCTIVITY else POTENTIAL
        return FourierRadialField._trusted(kind, cos, sin)


def _monomial_profile(k, nums, den, exact) -> RadialProfile:
    """sum_n (nums[n] / den) LM^k_n on the powers r^(2l+k).

    One pass over family row n per coefficient: family coefficients reach 1e4
    by n = 7, so each power's sum is formed in integers and rounded once.
    """
    sums = [0] * len(nums)
    for n, (c, row) in enumerate(zip(nums, _integer_rows(k, len(nums)))):
        sums[: n + 1] = map(operator.add, sums, map(c.__mul__, row.coeffs))
    powers = range(k, k + 2 * len(sums), 2)
    if exact:  # its Fractions are built only if its terms are read
        return RadialProfile._from_integers(powers, sums, den)
    return RadialProfile._trusted(tuple(zip(powers, _exact_or_rounded(sums, den, False))))


def _series(coeffs) -> tuple:
    """(numerators, D, exact) of one series of coefficients, each checked by ``errors.real``."""
    coeffs = [real(c, "coefficient") for c in coeffs]
    return (*_common_denominator(coeffs), all(map(rational, coeffs)))


def reconstruct(
    mset: DtnMatrixSet,
    N: int | None = None,
    tol: float = 1e-9,
    reg_cap: int | None = None,
    arithmetic: str = "auto",
) -> Reconstruction:
    """Validate, symmetrize and invert a matrix set up to truncation N.

    arithmetic: "auto" uses exact rationals when the set carries them,
    "rational" forces exact solves (float data is lifted to exact dyadic
    rationals first), "float" drops the exact tables, lifts the doubles,
    solves exactly and rounds each coefficient once; it costs the same as
    "rational" and differs from it only in returning floats.
    reg_cap drops coefficients p_n, q_n with n > reg_cap.
    """
    if arithmetic not in ("auto", "rational", "float"):
        raise DomainError(f"unknown arithmetic mode {arithmetic!r}")
    N, reg_cap = _truncation(mset.N, N, 1 if mset.kind == CONDUCTIVITY else 0, reg_cap)
    report = validate(mset, tol)
    if not report.passed:
        raise InconsistentDataError(report)
    # exact data that deviates nowhere is its own projection; "float" reads
    # the float blocks, which symmetrized rebuilds from the exact tables
    exact = arithmetic != "float" and mset._ints is not None
    sym = mset if exact and report.max_deviation == 0 else mset.symmetrized()
    return _invert(mset.kind, N, _blocks(sym, floats=not exact), exact, exact or arithmetic == "rational", reg_cap)


def _truncation(stored, N, least, reg_cap) -> tuple:
    """(N, reg_cap) checked, reg_cap first: None or an integer >= 0, then N (``stored`` if None) in least..stored."""
    reg_cap = None if reg_cap is None else integer(reg_cap, 0, "reg_cap")
    N = integer(stored if N is None else N, 0, "truncation N")
    if not least <= N <= stored:
        raise RangeError(f"truncation N={N} outside stored range {least}..{stored}")
    return N, reg_cap


def _invert(kind, N, blocks, exact, rational, reg_cap, scale=1) -> Reconstruction:
    """Solve each order's ``_moments`` of ``_blocks``-form blocks (integers if ``exact``), numerators times ``scale``.

    A cs block of None carries no sine orders.  Coefficients stay exact when
    ``rational``, else each is rounded once and the view holds their lift.
    """
    def solve(k, parity):  # coefficient n reads moments 0..n only, so a cap drops the moments beyond it
        nums, den = _moments(kind, blocks, exact, N, k, parity)
        nums = _solve(k, [scale * n for n in (nums if reg_cap is None else nums[: reg_cap + 1])])
        return (nums, den, True) if rational else _series(_exact_or_rounded(nums, den, False))

    top = N if kind == CONDUCTIVITY else N + 1
    series = [{k: solve(k, "cos") for k in range(top)},
              {k: solve(k, "sin") for k in range(1, top if blocks[3] is not None else 1)}]
    condition = {k: condition_sums(k, len(nums)) for k, (nums, _, _) in series[0].items() if nums}
    rec = Reconstruction(kind, N, {}, {}, {})  # the solved view and rows are stored unchecked, as _trusted stores
    rec._pq, rec._ints, rec.condition = [None, None], series, condition
    return rec


def admissibility(rec: Reconstruction) -> float:
    """Weighted coefficient sum equal to ||field||^2_{L^2(disk)} / pi.

    With the k = 0 convention factor folded in this is
    (1/4) sum_n p_{n,0}^2/(2n+1) + (1/2) sum_{k>=1,n} (p_{n,k}^2 + q_{n,k}^2)/(2n+k+1);
    boundedness of the full series is the admissibility criterion for moment
    data to come from a square-integrable field.  A sum beyond the range of
    a double is a DomainError.
    """
    total = 0.0
    try:
        for parity, table in enumerate(rec._floats()):
            for k, coeffs in table.items():
                w = 0.25 if parity == k == 0 else 0.5
                for n, c in enumerate(coeffs):
                    total += w * c**2 / (2 * n + k + 1)
    except OverflowError:  # c**2 beyond the double range
        total = math.inf
    if total == math.inf:
        raise DomainError("the admissibility sum is beyond the range of a double")
    return total


def extra_hankel_moments(mset: DtnMatrixSet) -> dict:
    """First-kind moments beyond the solvable triangle of a potential set.

    The Hankel parts of the J blocks expose integral r^{l+1} a_l dr (from
    cc - ss) and integral r^{l+1} b_l dr (from sc + cs) for l up to 2N; the
    values for l = N+1 .. 2N are not used by ``reconstruct`` (their profiles
    need deeper moment vectors) and are reported raw here, averaged along
    each anti-diagonal.
    """
    if mset.kind != SCHROEDINGER:
        raise KindMismatchError(f"expected a schroedinger set, got {mset.kind!r}")
    cc, ss, sc, cs, den = _blocks(mset)
    exact = mset._ints is not None

    def mean(values):  # exact: one rounding of the exact mean; floats: each over pi first
        if not exact:
            return sum(v / math.pi for v in values) / len(values)
        return quotients([sum(values)], den * len(values), "an extra moment")[0]

    groups = _hankel_groups(cc, ss, sc, cs, mset.N, first=mset.N + 1)
    return {parity: {l: mean(g[s]) for l, g in groups.items()} for s, parity in enumerate(("cos", "sin"))}
