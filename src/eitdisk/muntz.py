"""Muntz-Legendre polynomials with exact rational coefficient tables.

For an exponent sequence ``lambda_0, lambda_1, ...`` (distinct, each >= -1/2)
the n-th Muntz-Legendre polynomial is

    L_n(x) = sum_k c_{k,n} x^{lambda_k},
    c_{k,n} = prod_{j<n}(lambda_k + lambda_j + 1) / prod_{j<=n, j!=k}(lambda_k - lambda_j),

orthogonal on L^2([0,1]) with L_n(1) = 1.  The moment matrix
``A[l][n] = <L_n, x^{lambda_l}>`` is lower triangular with a hypergeometric
closed form, and so is its inverse ``R``; both are computed here as exact
``fractions.Fraction`` tables.  Floating point enters only at evaluation,
which runs the Jacobi three-term recurrence, never the monomial rows.

The weighted family ``LM^k_n(x) = sum_l Lc^k_{l,n} x^{2l+k}`` is the image of
the shifted sequence ``lambda_i = 2i + k + 1/2`` under the substitution that
moves the measure from ``dx`` to ``x dx``; it is orthogonal on
L^2([0,1], x dx) with squared norm 1/(4n + 2k + 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .errors import DegenerateSequenceError, DomainError, RangeError

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


class ExponentSequence:
    """Finite sequence of distinct rational exponents, each >= -1/2."""

    __slots__ = ("lambdas",)

    def __init__(self, lambdas):
        lams = tuple(Fraction(x) for x in lambdas)
        if not lams:
            raise DomainError("exponent sequence must be non-empty")
        for lam in lams:
            if lam < -_HALF:
                raise DomainError(f"exponent {lam} below -1/2")
        if len(set(lams)) != len(lams):
            raise DegenerateSequenceError("repeated exponent in sequence")
        self.lambdas = lams

    @classmethod
    def shifted(cls, k: int, count: int) -> "ExponentSequence":
        """The sequence 2i + k + 1/2, i = 0..count-1, tied to angular order k."""
        if k < 0 or count < 1:
            raise DomainError("need k >= 0 and count >= 1")
        return cls(Fraction(4 * i + 2 * k + 1, 2) for i in range(count))

    def __len__(self):
        return len(self.lambdas)

    def __getitem__(self, i):
        return self.lambdas[i]

    def __iter__(self):
        return iter(self.lambdas)

    def __eq__(self, other):
        return isinstance(other, ExponentSequence) and self.lambdas == other.lambdas

    def __hash__(self):
        return hash(self.lambdas)

    def __repr__(self):
        return f"ExponentSequence({list(self.lambdas)!r})"


@dataclass(frozen=True)
class MuntzPolynomial:
    """A combination sum_k coefficients[k] * x**exponents[k] on [0, 1]."""

    exponents: tuple
    coefficients: tuple

    def __call__(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"argument {x} outside [0, 1]")
        if x == 0.0 and any(e < 0 for e, c in zip(self.exponents, self.coefficients) if c):
            raise DomainError("negative exponent at x = 0")
        return sum(float(c) * x ** float(e) for e, c in zip(self.exponents, self.coefficients))


@dataclass(frozen=True)
class WeightedFamily:
    """Coefficient rows of LM^k_n on powers x^{2l+k}, exact up to degree nmax.

    ``rows[n][l]`` is the coefficient of ``x^{2l+k}`` in ``LM^k_n``.
    """

    k: int
    rows: tuple

    @property
    def nmax(self) -> int:
        return len(self.rows) - 1


@dataclass(frozen=True)
class TriangularMatrix:
    """Lower-triangular square matrix of exact rationals; rows[i] has i+1 entries."""

    rows: tuple

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
        return [
            [sum((self.entry(i, s) * other.entry(s, j) for s in range(n)), Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]

    def is_identity(self) -> bool:
        return all(
            self.rows[i][j] == (1 if i == j else 0)
            for i in range(self.size)
            for j in range(i + 1)
        )

    def row_abs_sums(self) -> list:
        """sum_l |entry(n, l)| per row; growth measures inversion conditioning."""
        return [sum(abs(e) for e in row) for row in self.rows]


def build_muntz(seq: ExponentSequence, n: int) -> MuntzPolynomial:
    """Construct L_n for the leading n+1 exponents of ``seq``."""
    lam = seq.lambdas
    if not 0 <= n < len(lam):
        raise RangeError(f"degree {n} outside sequence of length {len(lam)}")
    coeffs = []
    for k in range(n + 1):
        num = prod((lam[k] + lam[j] + 1 for j in range(n)), start=Fraction(1))
        den = prod((lam[k] - lam[j] for j in range(n + 1) if j != k), start=Fraction(1))
        coeffs.append(num / den)
    return MuntzPolynomial(exponents=lam[: n + 1], coefficients=tuple(coeffs))


def build_weighted_family(k: int, nmax: int) -> WeightedFamily:
    """Exact coefficient rows of LM^k_0 .. LM^k_nmax.

    Row n: Lc^k_{l,n} = prod_{j<n}(l+j+k+1) / prod_{j<=n, j!=l}(l-j), an integer
    numerator over l!(n-l)! up to sign.  This is row n of the solver for the
    shifted sequence divided by 1 + 2 lambda_n = 4n + 2k + 2, so both come
    from one cached table.
    """
    if k < 0:
        raise DomainError("angular order k must be >= 0")
    if nmax < 0:
        raise DomainError("nmax must be >= 0")
    unscaled, _ = _solver_tables(ExponentSequence.shifted(k, nmax + 1).lambdas)
    return WeightedFamily(k=k, rows=unscaled)


def eval_weighted(family: WeightedFamily, n: int, x: float) -> float:
    """Evaluate LM^k_n at x in [0, 1] as x^k P_n^{(0,k)}(2x^2 - 1) by the recurrence."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"argument {x} outside [0, 1]")
    if not 0 <= n <= family.nmax:
        raise RangeError(f"index {n} outside family range 0..{family.nmax}")
    coeffs = np.zeros((n + 1, 1))
    coeffs[n] = 1.0
    t = np.array([[2.0 * x * x - 1.0]])
    return float(_jacobi_sum(coeffs, _jacobi_constants([family.k], n + 1), t)[0, 0]) * x**family.k


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


def _jacobi_sum(coeffs, constants, t):
    """sum_n coeffs[n] * P_n^{(0,k)}(t) by the three-term recurrence.

    ``coeffs`` has shape (depth, orders) and ``constants`` comes from
    ``_jacobi_constants`` for the same orders and depth; ``t`` has shape
    (points, 1).  Returns shape (points, orders): one sum per point and order.
    """
    a, b, c = constants
    total = coeffs[0] * np.ones_like(t)
    prev, cur = 0.0, 1.0
    for n in range(1, len(coeffs)):
        prev, cur = cur, (a[n] * t + b[n]) * cur - c[n] * prev
        total += coeffs[n] * cur
    return total


def gram_matrix(seq: ExponentSequence, size: int) -> TriangularMatrix:
    """A[l][n] = <L_n, x^{lambda_l}> on L^2([0,1]); zero above the diagonal.

    Closed form: prod_{j<n}(lambda_l - lambda_j) / prod_{j<=n}(1 + lambda_l + lambda_j).
    """
    lam = _checked_prefix(seq, size)
    for l in lam:
        if 1 + 2 * l == 0:
            raise DomainError("exponent -1/2 makes x^lambda fall outside L^2([0,1])")
    rows = []
    for l in range(size):
        row = []
        for n in range(l + 1):
            num = prod((lam[l] - lam[j] for j in range(n)), start=Fraction(1))
            den = prod((1 + lam[l] + lam[j] for j in range(n + 1)), start=Fraction(1))
            row.append(num / den)
        rows.append(tuple(row))
    return TriangularMatrix(rows=tuple(rows))


def inverse_matrix(seq: ExponentSequence, size: int) -> TriangularMatrix:
    """Closed-form inverse R of ``gram_matrix(seq, size)``: R @ A = I exactly.

    R[a][b] = (1 + 2 lambda_a) * prod_{j<a}(1 + lambda_b + lambda_j)
                               / prod_{j<=a, j!=b}(lambda_b - lambda_j),  b <= a.

    Tables are cached per exponent prefix and shared by every caller.
    """
    _, rows = _solver_tables(_checked_prefix(seq, size))
    return TriangularMatrix(rows=rows)


# exponent prefix -> (rows of S, rows of R); see _solver_tables.  Entries hold
# immutable tuples and are never removed, so concurrent callers can at worst
# build the same row twice.
_TABLES = {}


def _solver_tables(lam: tuple) -> tuple:
    """Rows of S and of R = diag(1 + 2 lambda) S for the exponents ``lam``.

    S[a][b] = prod_{j<a}(1 + lambda_b + lambda_j) / prod_{j<=a, j!=b}(lambda_b - lambda_j).
    Row a depends only on lambda_0 .. lambda_a, so every prefix is cached and
    a longer table extends the longest cached prefix row by row (Borwein,
    Erdelyi and Zhang, Trans. AMS 342, 1994): off the diagonal
    S[a][b] = S[a-1][b] (1 + lambda_b + lambda_{a-1}) / (lambda_b - lambda_a),
    on it the product is taken directly.  Nothing divides by 1 + 2 lambda_a,
    which vanishes at lambda = -1/2.
    """
    top = len(lam)
    while top and lam[:top] not in _TABLES:
        top -= 1
    unscaled, scaled = _TABLES[lam[:top]] if top else ((), ())
    for a in range(top, len(lam)):
        x = lam[a]
        row = [s * (1 + y + lam[a - 1]) / (y - x) for s, y in zip(unscaled[-1], lam)] if a else []
        row.append(prod((1 + x + y for y in lam[:a]), start=Fraction(1))
                   / prod((x - y for y in lam[:a]), start=Fraction(1)))
        unscaled += (tuple(row),)
        scaled += (tuple((1 + 2 * x) * s for s in row),)
        _TABLES[lam[: a + 1]] = (unscaled, scaled)
    return unscaled, scaled


def lm_norm_squared(k: int, n: int) -> Fraction:
    """||LM^k_n||^2 on L^2([0,1], x dx), exactly 1/(4n + 2k + 2)."""
    if k < 0 or n < 0:
        raise DomainError("need k >= 0 and n >= 0")
    return Fraction(1, 4 * n + 2 * k + 2)


def _checked_prefix(seq: ExponentSequence, size: int):
    if not 1 <= size <= len(seq):
        raise RangeError(f"size {size} outside sequence of length {len(seq)}")
    return seq.lambdas[:size]
