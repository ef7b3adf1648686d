"""Exact tables for the generalized-exponent basis and its moment matrices.

Expected values below were worked out by hand from the closed-form products
and are frozen; the quadrature checks are independent of that algebra.
"""

from fractions import Fraction
from math import prod

import numpy as np
import pytest

from eitdisk import (
    DegenerateSequenceError,
    DomainError,
    ExponentSequence,
    RangeError,
    build_muntz,
    build_weighted_family,
    eval_weighted,
    gram_matrix,
    inverse_matrix,
    lm_norm_squared,
)
from eitdisk.quadrature import gauss_legendre_01

HALF = Fraction(1, 2)
FIVE_HALVES = Fraction(5, 2)


def test_sequence_validation():
    with pytest.raises(DomainError):
        ExponentSequence([])
    with pytest.raises(DomainError):
        ExponentSequence([Fraction(-3, 4)])
    with pytest.raises(DegenerateSequenceError):
        ExponentSequence([HALF, HALF])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), None])
def test_sequence_rejects_non_finite_exponents(bad):
    with pytest.raises(DomainError, match="finite"):
        ExponentSequence([HALF, bad])


def test_shifted_sequence():
    seq = ExponentSequence.shifted(1, 3)
    assert list(seq) == [Fraction(3, 2), Fraction(7, 2), Fraction(11, 2)]


def test_first_polynomials_frozen():
    seq = ExponentSequence([HALF, FIVE_HALVES])
    p0 = build_muntz(seq, 0)
    p1 = build_muntz(seq, 1)
    assert p0.coefficients == (Fraction(1),)
    assert p1.exponents == (HALF, FIVE_HALVES)
    assert p1.coefficients == (Fraction(-1), Fraction(2))
    # normalization at the right endpoint
    assert p0(1.0) == pytest.approx(1.0)
    assert p1(1.0) == pytest.approx(1.0)
    assert p1(0.25) == pytest.approx(-0.5 + 2 * 0.25**2.5)


def test_polynomial_domain():
    seq = ExponentSequence([HALF])
    p = build_muntz(seq, 0)
    with pytest.raises(DomainError):
        p(1.5)
    with pytest.raises(DomainError):
        p(-0.1)


def test_gram_matrix_frozen():
    seq = ExponentSequence([HALF, FIVE_HALVES])
    a = gram_matrix(seq, 2)
    assert a.entry(0, 0) == HALF
    assert a.entry(1, 0) == Fraction(1, 4)
    assert a.entry(1, 1) == Fraction(1, 12)
    assert a.entry(0, 1) == Fraction(0)  # above the diagonal
    with pytest.raises(RangeError):
        a.entry(0, 2)


def test_gram_matrix_is_termwise_integral():
    # <L_n, x^{lambda_l}> integrated term by term as exact rationals
    seq = ExponentSequence([Fraction(1), Fraction(2), Fraction(4), Fraction(7)])
    a = gram_matrix(seq, 4)
    for n in range(4):
        poly = build_muntz(seq, n)
        for l in range(n + 1):
            integral = sum(
                c / (e + seq[l] + 1) for e, c in zip(poly.exponents, poly.coefficients)
            )
            assert a.entry(l, n) == integral


def test_inverse_matrix_frozen():
    seq = ExponentSequence([HALF, FIVE_HALVES])
    r = inverse_matrix(seq, 2)
    assert r.entry(0, 0) == Fraction(2)
    assert r.entry(1, 0) == Fraction(-6)
    assert r.entry(1, 1) == Fraction(12)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("size", [1, 4, 9])
def test_inverse_pair_exact(k, size):
    seq = ExponentSequence.shifted(k, size)
    product = inverse_matrix(seq, size).multiply(gram_matrix(seq, size))
    for i in range(size):
        for j in range(size):
            assert product[i][j] == (1 if i == j else 0)


_PAIR = ExponentSequence([HALF, FIVE_HALVES])


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_muntz(ExponentSequence([Fraction(-1, 4), 1]), 1)(0.0), DomainError, "negative exponent at x = 0"),
    (lambda: gram_matrix(_PAIR, 2).multiply(gram_matrix(_PAIR, 1)), DomainError, "size mismatch in triangular product"),
    (lambda: build_muntz(_PAIR, 2), RangeError, "degree 2 outside sequence of length 2"),
    (lambda: gram_matrix(_PAIR, 3), RangeError, "size 3 outside sequence of length 2"),
], ids=["negative_exponent_at_0", "multiply_sizes", "build_muntz_degree", "gram_matrix_size"])
def test_arguments_outside_a_sequence_or_matrix_are_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def _dense(m):
    return [[m.entry(i, j) for j in range(m.size)] for i in range(m.size)]


@pytest.mark.parametrize("lams", [
    [Fraction(1, 3), Fraction(2), Fraction(9, 4), Fraction(5), Fraction(0)],
    [Fraction(7, 2), Fraction(1, 5), Fraction(11, 3), Fraction(0), Fraction(3), Fraction(13, 2)],
])
def test_gram_matrix_and_products_match_their_defining_sums(lams):
    seq, size = ExponentSequence(lams), len(lams)
    gram, inverse = gram_matrix(seq, size), inverse_matrix(seq, size)
    assert gram.rows == tuple(
        tuple(prod((lam - lams[j] for j in range(n)), start=Fraction(1))
              / prod((1 + lam + lams[j] for j in range(n + 1)), start=Fraction(1)) for n in range(l + 1))
        for l, lam in enumerate(lams))
    for a, b in ((inverse, gram), (gram, gram), (gram, inverse)):
        expected = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*_dense(b))]
                    for row in _dense(a)]
        assert a.multiply(b) == expected


def test_gram_rejects_borderline_exponent():
    # x^{-1/2} is not square integrable, the moment 1/(1+2*lambda) blows up
    seq = ExponentSequence([Fraction(-1, 2), HALF])
    with pytest.raises(DomainError):
        gram_matrix(seq, 2)


def test_weighted_family_frozen_rows():
    fam0 = build_weighted_family(0, 2)
    assert fam0.rows[0] == (Fraction(1),)
    assert fam0.rows[1] == (Fraction(-1), Fraction(2))
    assert fam0.rows[2] == (Fraction(1), Fraction(-6), Fraction(6))
    fam1 = build_weighted_family(1, 1)
    assert fam1.rows[1] == (Fraction(-2), Fraction(3))


def test_weighted_norms():
    assert lm_norm_squared(0, 0) == HALF
    assert lm_norm_squared(0, 1) == Fraction(1, 6)
    assert lm_norm_squared(1, 1) == Fraction(1, 8)


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_weighted_orthogonality_exact(k):
    # <LM_n, LM_m> over [0,1] with weight x dx, integrated term by term
    nmax = 5
    fam = build_weighted_family(k, nmax)
    for n in range(nmax + 1):
        for m in range(n + 1):
            integral = Fraction(0)
            for l, cl in enumerate(fam.rows[n]):
                for j, cj in enumerate(fam.rows[m]):
                    integral += cl * cj / Fraction(2 * l + 2 * j + 2 * k + 2)
            expected = lm_norm_squared(k, n) if n == m else Fraction(0)
            assert integral == expected


def test_weighted_quadrature_triangularity():
    # against x^{2m+k} for m < n the moments vanish; Gauss-Legendre confirms
    k, n = 1, 3
    fam = build_weighted_family(k, n)
    x, w = gauss_legendre_01(24)
    vals = np.array([eval_weighted(fam, n, xi) for xi in x])
    for m in range(n):
        moment = float(np.sum(w * vals * x ** (2 * m + k) * x))
        assert moment == pytest.approx(0.0, abs=1e-15)


def test_eval_weighted_bounds():
    fam = build_weighted_family(0, 2)
    assert eval_weighted(fam, 1, 1.0) == pytest.approx(1.0)
    with pytest.raises(RangeError):
        eval_weighted(fam, 3, 0.5)
    with pytest.raises(DomainError):
        eval_weighted(fam, 1, -0.2)


def test_condition_row_sums_monotone_structure():
    seq = ExponentSequence.shifted(0, 6)
    sums = inverse_matrix(seq, 6).row_abs_sums()
    assert sums[0] == 2
    assert sums[1] == 18
    assert sums[2] == 130
    assert all(b > a for a, b in zip(sums, sums[1:]))


def reference_inverse(lams, size):
    """R[a][b] from its defining products, independent of the cached recurrence."""
    lam = [Fraction(x) for x in lams[:size]]
    return tuple(
        tuple(
            (1 + 2 * lam[a])
            * prod((1 + lam[b] + lam[j] for j in range(a)), start=Fraction(1))
            / prod((lam[b] - lam[j] for j in range(a + 1) if j != b), start=Fraction(1))
            for b in range(a + 1)
        )
        for a in range(size)
    )


@pytest.mark.parametrize("k", range(7))
def test_inverse_matrix_matches_product_formula_shifted(k):
    for size in range(1, 17):
        seq = ExponentSequence.shifted(k, size)
        assert inverse_matrix(seq, size).rows == reference_inverse(seq.lambdas, size)


@pytest.mark.parametrize("lams", [
    [Fraction(-1, 2), Fraction(1, 3), Fraction(2), Fraction(9, 4), Fraction(5)],  # lead 0 first
    [Fraction(7, 2), Fraction(-1, 2), Fraction(1, 5), Fraction(11, 3), Fraction(0), Fraction(3)],
])
def test_inverse_matrix_matches_product_formula_custom(lams):
    seq = ExponentSequence(lams)
    for size in range(1, len(lams) + 1):
        assert inverse_matrix(seq, size).rows == reference_inverse(lams, size)


@pytest.mark.parametrize("k", range(8))
def test_weighted_family_is_scaled_solver(k):
    nmax = 13
    fam = build_weighted_family(k, nmax)
    solver = inverse_matrix(ExponentSequence.shifted(k, nmax + 1), nmax + 1)
    for n in range(nmax + 1):
        for l in range(n + 1):
            assert fam.rows[n][l] * (4 * n + 2 * k + 2) == solver.rows[n][l]


@pytest.mark.parametrize("order", [(10, 6), (6, 10)])
def test_inverse_matrix_prefixes_independent_of_call_order(order):
    # a sequence no other test builds, so the first call starts the cache
    offset = Fraction(1, 11) if order[0] > order[1] else Fraction(2, 11)
    seq = ExponentSequence([Fraction(3 * i + 1, 7) + offset for i in range(10)])
    first, second = (inverse_matrix(seq, size) for size in order)
    big, small = (first, second) if order[0] > order[1] else (second, first)
    assert small.rows == big.rows[:6]
    assert big.rows == reference_inverse(seq.lambdas, 10)


@pytest.mark.parametrize("k", [0, 3, 10])
def test_eval_weighted_matches_exact_rows_to_depth_20(k):
    # the exact sum of the monomial row at the (dyadic) float argument; a
    # Horner pass over the same rows loses every digit by n = 20
    fam = build_weighted_family(k, 20)
    for n in range(21):
        for x in (0.1, 0.37, 0.5, 0.77, 0.93, 1.0):
            xq = Fraction(x)
            exact = float(sum((c * xq ** (2 * l + k) for l, c in enumerate(fam.rows[n])), Fraction(0)))
            assert abs(eval_weighted(fam, n, x) - exact) <= 1e-13, (k, n, x)


def test_eval_weighted_is_one_at_one():
    for k in (0, 1, 7):
        fam = build_weighted_family(k, 12)
        assert [eval_weighted(fam, n, 1.0) for n in range(13)] == pytest.approx([1.0] * 13, abs=1e-13)
