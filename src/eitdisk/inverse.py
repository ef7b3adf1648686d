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
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import (
    DomainError,
    InconsistentDataError,
    KindMismatchError,
    RangeError,
)
from .fields import CONDUCTIVITY, POTENTIAL, FourierRadialField, RadialProfile
from .forward import SCHROEDINGER, DtnMatrixSet
from .muntz import (
    ExponentSequence,
    WeightedFamily,
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
    potential blocks); the solve itself is shift-independent.
    """

    k: int
    parity: str
    values: tuple
    origin_shift: int

    def __post_init__(self):
        if self.parity not in ("cos", "sin"):
            raise DomainError(f"parity must be 'cos' or 'sin', got {self.parity!r}")
        if self.origin_shift not in (0, 1):
            raise DomainError("origin_shift must be 0 or 1")
        for v in self.values:
            if not isinstance(v, (Fraction, int)) and not math.isfinite(v):
                raise DomainError("moment values must be finite")


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
    overlapping index range i, j >= 1; ss - cc and sc + cs constant along
    anti-diagonals there (Hankel), each anti-diagonal i + j = l tied to the
    single-frequency entries -cc[0][l] and sc[l][0] when those exist.

    These checks constrain every entry except cc[0][0], cc[N][N] and
    ss[N][N], which carry moments witnessed nowhere else in the set.

    Sets assembled analytically carry exact rational blocks and report
    deviation exactly 0; float-loaded data is checked in floating point.
    A NaN or negative ``tol`` is a DomainError.
    """
    _check_tol(tol)
    if mset.exact is not None:
        cc, ss, sc, cs = (mset.exact[n] for n in ("cc", "ss", "sc", "cs"))
    else:
        cc, ss, sc, cs = (b.tolist() for b in (mset.cc, mset.ss, mset.sc, mset.cs))
    checks = []

    def add(name, dev):
        dev = float(dev)
        checks.append(ValidationCheck(name=name, deviation=dev, passed=dev <= tol))

    add("cc_symmetric", _asym_dev(cc))
    add("ss_symmetric", _asym_dev(ss))
    add("cs_matches_sc_transpose", _transpose_dev(cs, sc))
    if mset.kind == CONDUCTIVITY:
        add("cc_matches_ss", _equal_dev(cc, ss))
        add("cs_antisymmetric", _antisym_dev(cs))
    else:
        # overlapping range i, j >= 1: drop column 0 of sc, row 0 of cs and cc
        N = mset.N
        sc_ov = [row[1:] for row in sc]
        cs_ov = cs[1:]
        diff = _combine(sc_ov, cs_ov, lambda a, b: a - b)
        add("sc_minus_cs_antisymmetric", _antisym_dev(diff))
        cc_ov = [row[1:] for row in cc[1:]]
        ssmcc = _combine(ss, cc_ov, lambda a, b: a - b)
        add("ss_minus_cc_hankel", _group_spread(
            _antidiagonal_groups(ssmcc, {l: -cc[0][l] for l in range(2, N + 1)})))
        scpcs = _combine(sc_ov, cs_ov, lambda a, b: a + b)
        add("sc_plus_cs_hankel", _group_spread(
            _antidiagonal_groups(scpcs, {l: sc[l - 1][0] for l in range(2, N + 1)})))
    return ValidationReport(kind=mset.kind, tol=tol, checks=tuple(checks))


def _check_tol(tol):
    if not tol >= 0:
        raise DomainError(f"tolerance must be >= 0, got {tol}")


def _max_nan(values):
    """max() that returns NaN if an item is NaN; plain max() may drop it."""
    values = list(values)
    if any(isinstance(v, float) and v != v for v in values):
        return math.nan
    return max(values, default=0)


def _asym_dev(rows):
    n = len(rows)
    return _max_nan(abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(n))


def _antisym_dev(rows):
    n = len(rows)
    return _max_nan(abs(rows[i][j] + rows[j][i]) for i in range(n) for j in range(n))


def _transpose_dev(cs, sc):
    return _max_nan(abs(cs[i][j] - sc[j][i]) for i in range(len(cs)) for j in range(len(cs[i])))


def _equal_dev(a, b):
    return _max_nan(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _combine(a, b, op):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _antidiagonal_groups(rows, extras):
    """Entry sets with constant index sum; rows holds true indices i, j >= 1.

    extras maps an index sum l to one additional value the anti-diagonal
    must also agree with.
    """
    n = len(rows)
    groups = []
    for l in range(2, 2 * n + 1):
        entries = [rows[i - 1][l - i - 1] for i in range(max(1, l - n), min(n, l - 1) + 1)]
        if l in extras:
            entries.append(extras[l])
        groups.append(entries)
    return groups


def _group_spread(groups):
    """Largest max - min over the groups; singletons impose no constraint."""
    return float(_max_nan(_max_nan(g) - min(g) for g in groups if len(g) > 1))


def extract_conductivity_moments(mset: DtnMatrixSet, k: int, parity: str = "cos") -> MomentData:
    """Read the weighted moments of the order-k profile off the K blocks."""
    if mset.kind != CONDUCTIVITY:
        raise KindMismatchError(f"expected a conductivity set, got {mset.kind!r}")
    least = 0 if parity == "cos" else 1
    if parity not in ("cos", "sin"):
        raise DomainError(f"parity must be 'cos' or 'sin', got {parity!r}")
    if not least <= k <= mset.N - 1:
        raise RangeError(f"order k={k} outside {parity} range for N={mset.N}")
    exact = mset.exact
    block_name = "cc" if parity == "cos" else "cs"
    values = []
    for i in range(1, mset.N - k + 1):
        denom = i * (i + k)
        if exact is not None:
            values.append(exact[block_name][i - 1][i + k - 1] / denom)
        else:
            values.append(mset.block(block_name)[i - 1, i + k - 1] / (denom * math.pi))
    return MomentData(k=k, parity=parity, values=tuple(values), origin_shift=1)


def extract_schroedinger_moments(mset: DtnMatrixSet, k: int, parity: str = "cos") -> MomentData:
    """Read the weighted moments of the order-k profile off the J blocks."""
    if mset.kind != SCHROEDINGER:
        raise KindMismatchError(f"expected a schroedinger set, got {mset.kind!r}")
    if parity not in ("cos", "sin"):
        raise DomainError(f"parity must be 'cos' or 'sin', got {parity!r}")
    least = 0 if parity == "cos" else 1
    if not least <= k <= mset.N:
        raise RangeError(f"order k={k} outside {parity} range for N={mset.N}")
    exact = mset.exact
    values = []
    if exact is not None:
        cc, ss, sc, cs = (exact[n] for n in ("cc", "ss", "sc", "cs"))
        pi_div = 1
    else:
        # Python floats: a sum beyond the double range becomes inf quietly,
        # and MomentData rejects it
        cc, ss, sc, cs = (b.tolist() for b in (mset.cc, mset.ss, mset.sc, mset.cs))
        pi_div = math.pi
    if parity == "cos":
        if k == 0:
            values.append(cc[0][0] / pi_div)
        else:
            values.append(cc[k][0] / pi_div)
        for i in range(1, mset.N - k + 1):
            values.append((cc[i][i + k] + ss[i - 1][i + k - 1]) / pi_div)
    else:
        values.append((cs[0][k - 1] + sc[k - 1][0]) / (2 * pi_div))
        for i in range(1, mset.N - k + 1):
            values.append((cs[i][i + k - 1] - sc[i - 1][i + k]) / pi_div)
    return MomentData(k=k, parity=parity, values=tuple(values), origin_shift=0)


def solve_moment_problem(data: MomentData) -> list:
    """Coefficients p_n of the profile in the LM^k basis from its moments.

    Exact-rational input gives exact rational output.  Float input is lifted
    to exact dyadic rationals, pushed through the same exact solver rows and
    rounded once per coefficient, at the cost of the exact solve; the solver
    row sums reach 1e6 by n = 7, so rounding the individual products would
    already cost ~1e-10 per term.
    """
    m = len(data.values)
    if m == 0:
        return []
    solver = inverse_matrix(ExponentSequence.shifted(data.k, m), m)
    exact_in = all(isinstance(v, (Fraction, int)) for v in data.values)
    values = data.values if exact_in else [Fraction(v) for v in data.values]
    out = [sum(map(mul, row, values), Fraction(0)) for row in solver.rows]
    return out if exact_in else _rounded(out)


def _rounded(values) -> list:
    """Round exact values to doubles; one beyond the double range is a DomainError."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise DomainError("a reconstructed coefficient is beyond the range of a double") from None


def condition_sums(k: int, count: int) -> list:
    """Row sums sum_l |R_{n,l}| of the exact solver, n = 0..count-1.

    Growth with n measures how strongly the moment inversion amplifies data
    errors at depth n.
    """
    solver = inverse_matrix(ExponentSequence.shifted(k, count), count)
    return [float(s) for s in solver.row_abs_sums()]


class Reconstruction:
    """Profile coefficients p (cosine) and q (sine) per angular order.

    p[k][n] multiplies LM^k_n; the k = 0 series carries a conventional 1/2.
    ``condition[k]`` holds the solver row sums used for diagnostics.

    Calling the reconstruction on arrays r, phi evaluates it there through the
    Jacobi recurrence (see ``muntz._jacobi_sum``), from a float table built on
    the first call; the exact LM families are built only for ``family`` and
    ``to_field``.
    """

    __slots__ = ("kind", "N", "p", "q", "condition", "_families", "_table", "_last_radius")

    def __init__(self, kind, N, p, q, condition):
        self.kind = kind
        self.N = N
        self.p = p
        self.q = q
        self.condition = condition
        self._families = {}
        self._table = None
        self._last_radius = None

    def family(self, k: int) -> WeightedFamily:
        fam = self._families.get(k)
        if fam is None:
            depth = max(len(self.p.get(k, ())), len(self.q.get(k, ())))
            if not depth:
                raise KeyError(k)
            fam = self._families[k] = build_weighted_family(k, depth - 1)
        return fam

    def __call__(self, r, phi) -> np.ndarray:
        """Values at polar points (r, phi), arrays of broadcastable shapes.

        Radial rows are computed per element of r and trigonometric rows per
        element of phi before the two broadcast, so a column of radii against
        a row of angles runs the recurrence once per radius.
        """
        r, phi = _polar_points(r, phi)
        radial, weight = self._radial(r[..., None])
        return np.asarray((radial * (weight * self._angular(phi[..., None]))).sum(axis=-1))

    def evaluate(self, r: float, phi: float) -> float:
        """Pointwise value at polar (r, phi); points on the last radius reuse its radial rows."""
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"radius {r} outside [0, 1]")
        if not math.isfinite(phi):
            raise DomainError(f"angle {phi} is not finite")
        last = self._last_radius  # one tuple, so concurrent callers see a matching pair
        if last is None or last[0] != r or not r:  # 0.0 == -0.0, but odd powers differ in sign
            last = self._last_radius = (r, *self._radial(np.full(1, r, dtype=float)))
        return float((last[1] * (last[2] * self._angular(phi))).sum())

    def _radial(self, r):
        """Radial sums and powers r**k, one per series, at radii r (with a trailing axis)."""
        coeffs, constants, ks, _ = self._series_table()
        return _jacobi_sum(coeffs, constants, 2.0 * r * r - 1.0), r**ks

    def _angular(self, phi):
        """cos(k phi), then sin(k phi), one per series, at phi (scalar or with a trailing axis)."""
        _, _, ks, ncos = self._series_table()
        trig = phi * ks
        np.cos(trig[..., :ncos], out=trig[..., :ncos])
        np.sin(trig[..., ncos:], out=trig[..., ncos:])
        return trig

    def _series_table(self):
        """Float coefficients (k = 0 half folded in), one column per nonempty series.

        Built on the first call.  Cosine series come first; returns
        (coefficients of shape (depth, series), recurrence constants, orders,
        number of cosine series).
        """
        if self._table is not None:
            return self._table
        series = [(k, 0.5 if k == 0 else 1.0, c) for k, c in self.p.items() if c]
        ncos = len(series)
        series += [(k, 1.0, c) for k, c in self.q.items() if c]
        depth = max((len(c) for _, _, c in series), default=1)
        coeffs = np.zeros((depth, len(series)))
        for s, (_, scale, c) in enumerate(series):
            coeffs[: len(c), s] = [scale * float(v) for v in c]
        ks = np.array([k for k, _, _ in series], dtype=float)
        self._table = coeffs, _jacobi_constants(ks, depth), ks, ncos
        return self._table

    def to_field(self) -> FourierRadialField:
        """Expand the LM series into monomial radial profiles.

        The k = 0 profile is halved so the result follows the plain-series
        convention used by the field type.
        """
        cos_profiles = {}
        sin_profiles = {}
        for k, coeffs in self.p.items():
            prof = self._monomial_profile(k, coeffs, halve=(k == 0))
            if prof is not None:
                cos_profiles[k] = prof
        for k, coeffs in self.q.items():
            prof = self._monomial_profile(k, coeffs, halve=False)
            if prof is not None:
                sin_profiles[k] = prof
        kind = CONDUCTIVITY if self.kind == CONDUCTIVITY else POTENTIAL
        return FourierRadialField(kind=kind, cos=cos_profiles, sin=sin_profiles)

    def _monomial_profile(self, k, coeffs, halve):
        if not coeffs:
            return None
        fam = self.family(k)
        exact_in = all(isinstance(c, (Fraction, int)) for c in coeffs)
        # family coefficients reach 1e4 by n = 7; lift the floats and round
        # once instead of rounding every product
        lifted = coeffs if exact_in else [Fraction(c) for c in coeffs]
        values = []
        for l in range(len(coeffs)):
            c = sum((lifted[n] * fam.rows[n][l] for n in range(l, len(coeffs))), Fraction(0))
            values.append(c / 2 if halve else c)
        if not exact_in:
            values = _rounded(values)
        return RadialProfile((2 * l + k, c) for l, c in enumerate(values))


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
    if reg_cap is not None and reg_cap < 0:
        raise DomainError("reg_cap must be >= 0")
    if N is None:
        N = mset.N
    least = 1 if mset.kind == CONDUCTIVITY else 0
    if not least <= N <= mset.N:
        raise RangeError(f"truncation N={N} outside stored range {least}..{mset.N}")
    report = validate(mset, tol)
    if not report.passed:
        raise InconsistentDataError(report)
    sym = mset.symmetrized()
    if arithmetic == "float" and sym.exact is not None:
        sym = DtnMatrixSet(sym.kind, sym.N, sym.cc, sym.ss, sym.sc, sym.cs, exact=None)
    lift = arithmetic == "rational" and sym.exact is None

    if mset.kind == CONDUCTIVITY:
        extract = extract_conductivity_moments
        cos_orders = range(0, N)
        sin_orders = range(1, N)
        count = lambda k: N - k
    else:
        extract = extract_schroedinger_moments
        cos_orders = range(0, N + 1)
        sin_orders = range(1, N + 1)
        count = lambda k: N - k + 1

    def solve_for(k, parity):
        data = extract(sym, k, parity)
        values = data.values[: count(k)]
        if lift:
            values = tuple(Fraction(v) for v in values)
        coeffs = solve_moment_problem(
            MomentData(k=k, parity=parity, values=values, origin_shift=data.origin_shift)
        )
        if reg_cap is not None:
            coeffs = coeffs[: reg_cap + 1]
        return coeffs

    p = {k: solve_for(k, "cos") for k in cos_orders}
    q = {k: solve_for(k, "sin") for k in sin_orders}
    condition = {k: condition_sums(k, len(p[k])) for k in p if p[k]}
    return Reconstruction(kind=mset.kind, N=N, p=p, q=q, condition=condition)


def admissibility(rec: Reconstruction) -> float:
    """Weighted coefficient sum equal to ||field||^2_{L^2(disk)} / pi.

    With the k = 0 convention factor folded in this is
    (1/4) sum_n p_{n,0}^2/(2n+1) + (1/2) sum_{k>=1,n} (p_{n,k}^2 + q_{n,k}^2)/(2n+k+1);
    boundedness of the full series is the admissibility criterion for moment
    data to come from a square-integrable field.
    """
    total = 0.0
    for k, coeffs in rec.p.items():
        w = 0.25 if k == 0 else 0.5
        for n, c in enumerate(coeffs):
            total += w * float(c) ** 2 / (2 * n + k + 1)
    for k, coeffs in rec.q.items():
        for n, c in enumerate(coeffs):
            total += 0.5 * float(c) ** 2 / (2 * n + k + 1)
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
    N = mset.N
    out = {"cos": {}, "sin": {}}
    if mset.exact is not None:
        cc, ss, sc, cs = (mset.exact[n] for n in ("cc", "ss", "sc", "cs"))
        pi_div = 1
    else:
        cc, ss, sc, cs = (b.tolist() for b in (mset.cc, mset.ss, mset.sc, mset.cs))
        pi_div = math.pi
    for l in range(N + 1, 2 * N + 1):
        lo, hi = max(1, l - N), min(N, l - 1)
        vals_a = [(cc[i][l - i] - ss[i - 1][l - i - 1]) / pi_div for i in range(lo, hi + 1)]
        vals_b = [(sc[i - 1][l - i] + cs[i][l - i - 1]) / pi_div for i in range(lo, hi + 1)]
        out["cos"][l] = float(sum(vals_a) / len(vals_a))
        out["sin"][l] = float(sum(vals_b) / len(vals_b))
    return out
