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

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InconsistentDataError, KindMismatchError, RangeError, integer, rational, real
from .fields import (CONDUCTIVITY, POTENTIAL, FourierRadialField, RadialProfile, _common_denominator,
                     _least_order)
from .forward import SCHROEDINGER, DtnMatrixSet
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


@dataclass(frozen=True)
class MomentData:
    """Weighted radial moments of one angular profile.

    values[m] = integral_0^1 r^{2m+k+1} profile(r) dr.  origin_shift records
    the first mode index the data came from (1 for conductivity blocks, 0 for
    potential blocks); the solve itself is shift-independent.  Values follow
    ``errors.real``: exact rationals, or finite reals taken as floats.
    """

    k: int
    parity: str
    values: tuple
    origin_shift: int

    def __post_init__(self):
        _least_order(self.parity)
        object.__setattr__(self, "k", integer(self.k, 0, "angular order k"))
        if self.origin_shift not in (0, 1):
            raise DomainError("origin_shift must be 0 or 1")
        object.__setattr__(self, "values", tuple(real(v, "moment value") for v in self.values))


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    deviation: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    tol: float
    checks: tuple

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
    denominator, and each deviation is divided by it once: the double nearest
    the exact value.  A NaN or negative ``tol`` is a DomainError.
    """
    _check_tol(tol)
    cc, ss, sc, cs, den = _blocks(mset)
    checks = []

    def add(name, dev):
        try:
            dev = dev / den  # int / int rounds once, as float(Fraction) does
        except OverflowError:  # beyond the double range: a failed check
            dev = math.inf
        checks.append(ValidationCheck(name=name, deviation=dev, passed=dev <= tol))

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
    return ValidationReport(kind=mset.kind, tol=tol, checks=tuple(checks))


def _blocks(mset, floats=False):
    """cc, ss, sc, cs and D: integer numerators over D of an exact set, or lists of floats and 1."""
    ints = None if floats else mset._ints
    if ints is None:
        return (*(b.tolist() for b in (mset.cc, mset.ss, mset.sc, mset.cs)), 1)
    blocks, den = ints
    return (*(blocks[n] for n in ("cc", "ss", "sc", "cs")), den)


def _check_tol(tol):
    if not tol >= 0:
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
    values, den = _moments(kind, _blocks(mset), mset._ints is not None, mset.N, k, parity)
    if den is not None:
        values = [Fraction(n, den) for n in values]
    return MomentData(k=k, parity=parity, values=tuple(values), origin_shift=shift)


def _moments(kind, blocks, exact, N, k, parity):
    """Order-k moments up to truncation N, each a block entry (or a sum of two) over divisor * pi.

    From exact ``_blocks``: integer numerators over one denominator; else
    entry / (divisor * pi) per moment, and None.  See the module docstring.
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
        return [e / (d * math.pi) for e, d in zip(entries, divisors)], None
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
    try:
        return [n / den for n in nums]
    except OverflowError:
        raise DomainError("a reconstructed coefficient is beyond the range of a double") from None


def condition_sums(k: int, count: int) -> list:  # public; the benchmark's tracer spans it by name
    """Row sums sum_l |R_{n,l}| of the exact solver, n = 0..count-1.

    Growth with n measures how strongly the moment inversion amplifies data
    errors at depth n.
    """
    k, count = integer(k, 0, "angular order k"), integer(count, 1, "count")
    return [row.condition for row in _integer_rows(k, count)]


class Reconstruction:
    """Profile coefficients p (cosine) and q (sine) per angular order.

    p[k][n] multiplies LM^k_n; the k = 0 series carries a conventional 1/2.
    ``condition[k]`` holds the solver row sums used for diagnostics.  Each
    parity's series are kept as one view {k: (numerators, D, exact)}, which
    every reader but p and q reads.  Tables passed in are checked (keys by
    ``errors.integer``, coefficients by ``errors.real``) and lifted into it;
    p and q are those tables, or for a solve are built from the view on first
    read (n / D is each double itself; -0.0 reads as 0.0).

    Calling the reconstruction on arrays r, phi evaluates it there through the
    Jacobi recurrence (see ``muntz._jacobi_sum``), from a float table built on
    the first call; the exact LM families are built only for ``family``.
    """

    __slots__ = ("kind", "N", "_pq", "_ints", "condition", "_table", "_last_radius")

    def __init__(self, kind, N, p, q, condition):
        self.kind, self.N, self.condition = kind, N, condition
        self._pq = [p, q]  # the caller's tables, or None where a solve's p or q is not built yet
        self._ints = [{integer(k, 0, "angular order k"): _series(c) for k, c in t.items()} for t in self._pq]
        self._table = self._last_radius = None

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
        _, _, ks, ncos = self._table  # built by _radial
        trig = phi[..., None] * ks  # cos(k phi), then sin(k phi), one per series
        np.cos(trig[..., :ncos], out=trig[..., :ncos])
        np.sin(trig[..., ncos:], out=trig[..., ncos:])
        return np.asarray((radial * (weight * trig)).sum(axis=-1))

    def evaluate(self, r: float, phi: float) -> float:
        """Pointwise value at polar (r, phi); points on the last radius reuse its radial rows.

        One fresh row per point: cosines, then sines, times r**k, times the radial
        sums, added by one ``np.add.reduce``; bit-identical to ``__call__``.
        """
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"radius {r} outside [0, 1]")
        if not math.isfinite(phi):
            raise DomainError(f"angle {phi} is not finite")
        last = self._last_radius  # one tuple, so concurrent callers see a matching pair
        if last is None or last[0] != r or not r:  # 0.0 == -0.0, but odd powers differ in sign
            last = self._last_radius = (r, *self._radial(np.full(1, r, dtype=float)))
        _, _, ks, ncos = self._table  # built by the first _radial call above
        trig = phi * ks  # fresh, so the shared rows are only read
        cos, sin = trig[:ncos], trig[ncos:]
        np.cos(cos, out=cos)
        np.sin(sin, out=sin)
        trig *= last[2]
        trig *= last[1]
        return float(np.add.reduce(trig))

    def _radial(self, r):
        """Radial sums and powers r**k, one per series, at radii r (with a trailing axis)."""
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
        view's numerators, exact when the series is, else rounded once per
        monomial coefficient.
        """
        cos, sin = ({k: _monomial_profile(k, nums, 2 * den if parity == k == 0 else den, exact)
                     for k, (nums, den, exact) in v.items() if nums} for parity, v in enumerate(self._ints))
        kind = CONDUCTIVITY if self.kind == CONDUCTIVITY else POTENTIAL
        return FourierRadialField(kind=kind, cos=cos, sin=sin)


def _monomial_profile(k, nums, den, exact) -> RadialProfile:
    """sum_n (nums[n] / den) LM^k_n on the powers r^(2l+k).

    One pass over family row n per coefficient: family coefficients reach 1e4
    by n = 7, so each power's sum is formed in integers and rounded once.
    """
    sums = [0] * len(nums)
    for n, (c, row) in enumerate(zip(nums, _integer_rows(k, len(nums)))):
        sums[: n + 1] = map(operator.add, sums, map(c.__mul__, row.coeffs))
    return RadialProfile((2 * l + k, v) for l, v in enumerate(_exact_or_rounded(sums, den, exact)))


def _series(coeffs) -> tuple:
    """(numerators, D, exact) of one series of coefficients, each checked by ``errors.real``."""
    coeffs = [real(c, "coefficient") for c in coeffs]
    return (*_common_denominator(coeffs), all(map(rational, coeffs)))


def _polar_points(r, phi) -> tuple:
    """r and phi as float arrays, each of its own shape (callers broadcast them).

    A radius outside [0, 1] or a NaN or infinite angle is a DomainError.
    """
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    inside = (r >= 0.0) & (r <= 1.0)
    if not inside.all():
        raise DomainError(f"radius {float(r[~inside].flat[0])} outside [0, 1]")
    if not np.isfinite(phi).all():
        raise DomainError(f"angle {float(phi[~np.isfinite(phi)].flat[0])} is not finite")
    return r, phi


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
    if reg_cap is not None:
        reg_cap = integer(reg_cap, 0, "reg_cap")
    N = integer(mset.N if N is None else N, 0, "truncation N")
    least = 1 if mset.kind == CONDUCTIVITY else 0
    if not least <= N <= mset.N:
        raise RangeError(f"truncation N={N} outside stored range {least}..{mset.N}")
    report = validate(mset, tol)
    if not report.passed:
        raise InconsistentDataError(report)
    # exact data that deviates nowhere is its own projection; "float" reads
    # the float blocks, which symmetrized rebuilds from the exact tables
    exact = arithmetic != "float" and mset._ints is not None
    sym = mset if exact and report.max_deviation == 0 else mset.symmetrized()
    moments = functools.partial(_moments, mset.kind, _blocks(sym, floats=not exact), exact, N)
    top = N if mset.kind == CONDUCTIVITY else N + 1
    return _invert(mset.kind, N, range(top), range(1, top), moments, exact or arithmetic == "rational",
                   reg_cap)


def _invert(kind, N, cos_orders, sin_orders, moments, exact, reg_cap) -> Reconstruction:
    """Solve each order's moments(k, parity): (numerators, denominator), or (doubles, None).

    Doubles are lifted to exact dyadic rationals; coefficients stay exact when ``exact``, else each
    is rounded once and the view holds the lift of those doubles.
    """
    def solve(k, parity):  # coefficient n reads moments 0..n only, so a cap drops the moments beyond it
        nums, den = moments(k, parity)
        if den is None:
            if not all(map(math.isfinite, nums)):
                raise DomainError("moment values must be finite")
            nums, den = _common_denominator(nums)
        nums = _solve(k, nums if reg_cap is None else nums[: reg_cap + 1])
        return (nums, den, True) if exact else _series(_exact_or_rounded(nums, den, False))

    series = [{k: solve(k, "cos") for k in cos_orders}, {k: solve(k, "sin") for k in sin_orders}]
    condition = {k: condition_sums(k, len(nums)) for k, (nums, _, _) in series[0].items() if nums}
    rec = Reconstruction(kind, N, {}, {}, condition)
    rec._pq, rec._ints = [None, None], series
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
        try:
            return sum(values) / (den * len(values))
        except OverflowError:
            raise DomainError("an extra moment is beyond the range of a double") from None

    groups = _hankel_groups(cc, ss, sc, cs, mset.N, first=mset.N + 1)
    return {parity: {l: mean(g[s]) for l, g in groups.items()} for s, parity in enumerate(("cos", "sin"))}
