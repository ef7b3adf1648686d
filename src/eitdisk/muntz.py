"""Muntz-Legendre polynomials with exact rational coefficient tables.

For an exponent sequence ``lambda_0, lambda_1, ...`` (distinct, each >= -1/2)
the n-th Muntz-Legendre polynomial is

    L_n(x) = sum_k c_{k,n} x^{lambda_k},
    c_{k,n} = prod_{j<n}(lambda_k + lambda_j + 1) / prod_{j<=n, j!=k}(lambda_k - lambda_j),

orthogonal on L^2([0,1]) with L_n(1) = 1.  The moment matrix
``A[l][n] = <L_n, x^{lambda_l}>`` is lower triangular with a hypergeometric
closed form, and so is its inverse ``R``; both are computed here as exact
``fractions.Fraction`` tables, and for the shifted sequences below the rows
of ``R`` are integer rows times 4n + 2k + 2.  Floating point enters only at
evaluation, which runs the Jacobi three-term recurrence, never the monomial
rows.

The weighted family ``LM^k_n(x) = sum_l Lc^k_{l,n} x^{2l+k}`` is the image of
the shifted sequence ``lambda_i = 2i + k + 1/2`` under the substitution that
moves the measure from ``dx`` to ``x dx``; it is orthogonal on
L^2([0,1], x dx) with squared norm 1/(4n + 2k + 2).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, prod

import numpy as np

from .errors import DegenerateSequenceError, DomainError, RangeError, Record, double, integer

__all__ = [
    "ExponentSequence",
    "MuntzPolynomial",
    "WeightedFamily",
    "TriangularMatrix",
    "build_muntz",
    "build_weighted_family",
    "eval_weighted",
    "gram_matrix",
    "inverse_matrix",
    "lm_norm_squared",
]

_HALF = Fraction(1, 2)


class ExponentSequence(Record):
    """Finite sequence of distinct finite rational exponents, each >= -1/2."""

    __slots__ = _fields = ("lambdas",)

    def __init__(self, lambdas):
        lambdas = tuple(lambdas)  # errors the caller's own iterator raises pass through unwrapped
        try:
            lams = tuple(Fraction(x) for x in lambdas)
        except (ValueError, OverflowError) as exc:  # NaN, an infinity or a malformed string
            raise DomainError(f"exponents must be finite rationals: {exc}") from None
        if not lams:
            raise DomainError("exponent sequence must be non-empty")
        for lam in lams:
            if lam < -_HALF:
                raise DomainError(f"exponent {lam} below -1/2")
        if len(set(lams)) != len(lams):
            raise DegenerateSequenceError("repeated exponent in sequence")
        self._store(lams)

    @classmethod
    def shifted(cls, k: int, count: int) -> "ExponentSequence":
        """The sequence 2i + k + 1/2, i = 0..count-1, tied to angular order k."""
        k, count = integer(k, 0, "angular order k"), integer(count, 1, "count")
        return cls(Fraction(4 * i + 2 * k + 1, 2) for i in range(count))

    def __len__(self):
        return len(self.lambdas)

    def __getitem__(self, i):
        return self.lambdas[i]

    def __iter__(self):
        return iter(self.lambdas)

    def __repr__(self):
        return f"ExponentSequence({list(self.lambdas)!r})"


class MuntzPolynomial(Record):
    """A combination sum_k coefficients[k] * x**exponents[k], called at a real x in [0, 1] read as a double."""

    __slots__ = _fields = ("exponents", "coefficients")

    def __init__(self, exponents, coefficients):
        self._store(exponents, coefficients)

    def __call__(self, x: float) -> float:
        x = double(x, "argument")
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"argument {x} outside [0, 1]")
        if x == 0.0 and any(e < 0 for e, c in zip(self.exponents, self.coefficients) if c):
            raise DomainError("negative exponent at x = 0")
        return sum(float(c) * x ** float(e) for e, c in zip(self.exponents, self.coefficients))


class WeightedFamily(Record):
    """Coefficient rows of LM^k_n on powers x^{2l+k}, exact up to degree nmax.

    ``rows[n][l]`` is the coefficient of ``x^{2l+k}`` in ``LM^k_n``.
    """

    __slots__ = _fields = ("k", "rows")

    def __init__(self, k, rows):
        self._store(k, rows)

    @property
    def nmax(self) -> int:
        return len(self.rows) - 1


class TriangularMatrix(Record):
    """Lower-triangular square matrix of exact rationals; rows[i] has i+1 entries."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows):
        self._store(rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise RangeError(f"index ({i}, {j}) outside {self.size}x{self.size} matrix")
        return self.rows[i][j] if j <= i else Fraction(0)

    def multiply(self, other: "TriangularMatrix") -> list:
        """Dense product self @ other as lists of Fractions."""
        n = self.size
        if other.size != n:
            raise DomainError("size mismatch in triangular product")
        b = other.rows  # entries beyond either diagonal are zero, so s runs over j..i only
        return [[sum((a[s] * b[s][j] for s in range(j, i + 1)), Fraction(0)) for j in range(n)]
                for i, a in enumerate(self.rows)]

    def row_abs_sums(self) -> list:
        """sum_l |entry(n, l)| per row; growth measures inversion conditioning."""
        return [sum(abs(e) for e in row) for row in self.rows]


def build_muntz(seq: ExponentSequence, n: int) -> MuntzPolynomial:
    """Construct L_n for the leading n+1 exponents of ``seq``."""
    lam, n = seq.lambdas, integer(n, 0, "degree n")
    if n >= len(lam):
        raise RangeError(f"degree {n} outside sequence of length {len(lam)}")
    return MuntzPolynomial(exponents=lam[: n + 1], coefficients=_muntz_rows(lam[: n + 1])[n])


def build_weighted_family(k: int, nmax: int) -> WeightedFamily:
    """Exact coefficient rows of LM^k_0 .. LM^k_nmax.

    Row n is Lc^k_{l,n} = (-1)^(n-l) C(n, l) C(n+l+k, n), the cached integer
    row E_n of the shifted sequence's solver (see ``_integer_rows``).
    """
    k, nmax = integer(k, 0, "angular order k"), integer(nmax, 0, "nmax")
    return WeightedFamily(k=k, rows=tuple(tuple(map(Fraction, r.coeffs)) for r in _integer_rows(k, nmax + 1)))


def eval_weighted(family: WeightedFamily, n: int, x: float) -> float:
    """Evaluate LM^k_n at a real x in [0, 1], read as a double, as x^k P_n^{(0,k)}(2x^2 - 1) by the recurrence."""
    x = double(x, "argument")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"argument {x} outside [0, 1]")
    if integer(n, 0, "index n") > family.nmax:
        raise RangeError(f"index {n} outside family range 0..{family.nmax}")
    coeffs = np.zeros((n + 1, 1))
    coeffs[n] = 1.0
    return float(_jacobi_sum(coeffs, _jacobi_constants([family.k], n + 1), 2.0 * x * x - 1.0)[0]) * x**family.k


def _jacobi_constants(ks, depth: int) -> tuple:
    """Recurrence constants of P_n^{(0,k)}, n < depth, one column per order in ``ks``.

    LM^k_n(x) = x^k P_n^{(0,k)}(2x^2 - 1) (Szego, Orthogonal Polynomials, ch. IV),
    and P_n = (a_n t + b_n) P_{n-1} - c_n P_{n-2} with P_{-1} = 0, P_0 = 1,
    P_1 = 1 + (k+2)(t-1)/2 and, for n >= 2,

        2n(n+k)(2n+k-2) P_n = (2n+k-1)[(2n+k)(2n+k-2) t - k^2] P_{n-1}
                              - 2(n-1)(n+k-1)(2n+k) P_{n-2}.

    Returns arrays a, b, c of shape (depth, len(ks)); row 0 is unused.
    """
    k = np.asarray(ks, dtype=float)
    a = np.zeros((depth, k.size))
    b = np.zeros_like(a)
    c = np.zeros_like(a)
    if depth > 1:
        a[1], b[1] = (k + 2.0) / 2.0, -k / 2.0
    if depth > 2:
        n = np.arange(2, depth, dtype=float)[:, None]
        den = 2.0 * n * (n + k) * (2.0 * n + k - 2.0)
        a[2:] = (2.0 * n + k - 1.0) * (2.0 * n + k) * (2.0 * n + k - 2.0) / den
        b[2:] = -(2.0 * n + k - 1.0) * k * k / den
        c[2:] = 2.0 * (n - 1.0) * (n + k - 1.0) * (2.0 * n + k) / den
    return a, b, c


def _jacobi_sum(coeffs, constants, t, out=None):
    """sum_n coeffs[n] * P_n^{(0,k)}(t) by the three-term recurrence.

    ``coeffs`` (depth, orders) and ``constants`` (from ``_jacobi_constants``) share orders and depth.
    A float ``t`` gives shape (orders,), an array (..., 1) gives (..., orders), in equal blocks of at
    most ``_TABLE_ENTRIES`` entries.  One table of every a_n t + b_n becomes P_n row by row in place,
    then is scaled by coeffs and summed down the rows: the streaming recurrence's steps, in its order.
    """
    a, b, c = constants
    if out is None and not isinstance(t, float):
        flat = t.reshape(-1, 1)
        out = np.empty((len(flat), coeffs.shape[1]))
        blocks = max(1, -(-len(flat) * coeffs.size // _TABLE_ENTRIES))  # as few as fit, of equal size
        step = max(1, -(-len(flat) // blocks))
        for i in range(0, len(flat), step):
            _jacobi_sum(coeffs[:, None], (a[:, None], b[:, None], c), flat[i : i + step], out[i : i + step])
        return out.reshape(t.shape[:-1] + out.shape[1:])
    table = a * t
    table += b
    rows = list(table)
    rows[0][...] = 1.0
    for n in range(2, len(rows)):
        rows[n] *= rows[n - 1]
        rows[n] -= c[n] * rows[n - 2]
    table *= coeffs
    if table[0].size == 1:  # a reduce down rows of one entry would sum pairwise
        table = np.add.accumulate(table, axis=0)[-1:]
    return np.add.reduce(table, axis=0, out=out)


_TABLE_ENTRIES = 1 << 16  # 512 KB


def gram_matrix(seq: ExponentSequence, size: int) -> TriangularMatrix:
    """A[l][n] = <L_n, x^{lambda_l}> on L^2([0,1]); zero above the diagonal.

    Closed form: prod_{j<n}(lambda_l - lambda_j) / prod_{j<=n}(1 + lambda_l + lambda_j),
    built along each row: A[l][0] = 1 / (1 + lambda_l + lambda_0) and
    A[l][n] = A[l][n-1] (lambda_l - lambda_{n-1}) / (1 + lambda_l + lambda_n).
    """
    lam = _checked_prefix(seq, size)
    for l in lam:
        if 1 + 2 * l == 0:
            raise DomainError("exponent -1/2 makes x^lambda fall outside L^2([0,1])")
    rows = []
    for l, x in enumerate(lam):
        row = [1 / (1 + x + lam[0])]
        for n in range(1, l + 1):
            row.append(row[-1] * (x - lam[n - 1]) / (1 + x + lam[n]))
        rows.append(tuple(row))
    return TriangularMatrix(rows=tuple(rows))


def inverse_matrix(seq: ExponentSequence, size: int) -> TriangularMatrix:
    """Closed-form inverse R of ``gram_matrix(seq, size)``: R @ A = I exactly.

    R[a][b] = (1 + 2 lambda_a) S[a][b], b <= a, with S the rows of ``_muntz_rows``.
    """
    lam = _checked_prefix(seq, size)
    return TriangularMatrix(rows=tuple(tuple((1 + 2 * x) * s for s in row)
                                       for x, row in zip(lam, _muntz_rows(lam))))


def _muntz_rows(lam: tuple) -> tuple:
    """Rows S[a][b] = c_{b,a}, the coefficients of L_a on x^{lambda_b}, for the exponents ``lam``.

    S[a][b] = prod_{j<a}(1 + lambda_b + lambda_j) / prod_{j<=a, j!=b}(lambda_b - lambda_j).
    Row a depends only on lambda_0 .. lambda_a and follows from row a-1 (Borwein,
    Erdelyi and Zhang, Trans. AMS 342, 1994): off the diagonal
    S[a][b] = S[a-1][b] (1 + lambda_b + lambda_{a-1}) / (lambda_b - lambda_a),
    on it the product is taken directly.  Nothing divides by 1 + 2 lambda_a,
    which vanishes at lambda = -1/2.
    """
    rows = []
    for a, x in enumerate(lam):
        row = [s * (1 + y + lam[a - 1]) / (y - x) for s, y in zip(rows[-1], lam)] if a else []
        row.append(prod((1 + x + y for y in lam[:a]), start=Fraction(1))
                   / prod((x - y for y in lam[:a]), start=Fraction(1)))
        rows.append(tuple(row))
    return tuple(rows)


# angular order k -> rows of _integer_rows; entries hold immutable tuples, so
# concurrent callers can at worst build the same rows twice.
_INT_ROWS = {}
_IntegerRow = namedtuple("_IntegerRow", "coeffs scale condition")


def _integer_rows(k: int, count: int) -> tuple:
    """Solver rows n = 0..count-1 of the shifted sequence 2i + k + 1/2, in integers.

    Row n holds E_n = S[n], 4n + 2k + 2 and the condition sum, with
    E_n[l] = (-1)^(n-l) C(n, l) C(n+l+k, n) (Borwein, Erdelyi and Zhang, Trans.
    AMS 342, 1994): R[n] = (4n + 2k + 2) E_n, the family row LM^k_n is E_n, and
    the condition sum is sum_l |R[n][l]| as a double.  Rows are cached per k
    and extended by prefix.  Callers pass ints k, count >= 0 (checked by
    ``errors.integer`` or taken from a range), so this function checks neither.
    """
    rows = _INT_ROWS.get(k, ())
    for n in range(len(rows), count):
        row = tuple((-1) ** (n - l) * comb(n, l) * comb(n + l + k, n) for l in range(n + 1))
        scale = 4 * n + 2 * k + 2
        rows += (_IntegerRow(row, scale, float(scale * sum(map(abs, row)))),)
        _INT_ROWS[k] = rows
    return rows[:count]


def lm_norm_squared(k: int, n: int) -> Fraction:
    """||LM^k_n||^2 on L^2([0,1], x dx), exactly 1/(4n + 2k + 2)."""
    k, n = integer(k, 0, "angular order k"), integer(n, 0, "index n")
    return Fraction(1, 4 * n + 2 * k + 2)


def _checked_prefix(seq: ExponentSequence, size: int):
    if integer(size, 1, "size") > len(seq):
        raise RangeError(f"size {size} outside sequence of length {len(seq)}")
    return seq.lambdas[:size]
