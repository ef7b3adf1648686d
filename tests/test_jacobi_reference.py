"""The stacked Jacobi recurrence against a frozen copy of the streaming one, bit for bit."""

import numpy as np
import pytest

import eitdisk.muntz as muntz
from eitdisk import build_weighted_family, eval_weighted
from eitdisk.muntz import _jacobi_constants, _jacobi_sum
from jacobi_reference import streaming_jacobi_sum

SPECIAL_RADII = [0.0, -0.0, 5e-324, 1.0]


def _bits(values):
    """int64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def _series(N, depth, seed):
    """Coefficients of mixed signs and magnitudes for the 2N + 1 orders 0..N, 1..N, with their constants."""
    ks = np.array(list(range(N + 1)) + list(range(1, N + 1)), dtype=float)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((depth, ks.size)) * 10.0 ** rng.integers(-6, 6, (depth, ks.size))
    coeffs[rng.random(coeffs.shape) < 0.1] = 0.0
    return coeffs, _jacobi_constants(ks, depth), ks


def _radii(count, seed):
    radii = np.random.default_rng(seed).random(count)
    radii[: min(count, 4)] = SPECIAL_RADII[:count]
    return radii


@pytest.mark.parametrize("N", [0, 1, 4, 12, 24, 48])
def test_float_t_matches_the_streaming_recurrence(N):
    for depth in sorted({1, 2, N + 1, 2 * N + 1}):
        coeffs, constants, _ = _series(N, depth, seed=depth)
        for r in SPECIAL_RADII + list(_radii(40, seed=N)):
            t = 2.0 * r * r - 1.0
            got = _jacobi_sum(coeffs, constants, t)
            assert got.shape == (coeffs.shape[1],)
            assert (_bits(got) == _bits(streaming_jacobi_sum(coeffs, constants, np.full(1, t)))).all(), (depth, r)


@pytest.mark.parametrize("N", [1, 12, 48])
@pytest.mark.parametrize("count", [1, 255, 256, 257, 1000])
def test_arrays_match_across_block_edges(monkeypatch, N, count):
    for depth in sorted({1, 2, N + 1, 2 * N + 1}):
        coeffs, constants, _ = _series(N, depth, seed=count + depth)
        r = _radii(count, seed=count)
        t = (2.0 * r * r - 1.0)[:, None]
        expected = _bits(streaming_jacobi_sum(coeffs, constants, t))
        # the default bound, then blocks of 256 radii and of one radius
        for entries in (muntz._TABLE_ENTRIES, 256 * coeffs.size, 1):
            monkeypatch.setattr(muntz, "_TABLE_ENTRIES", entries)
            got = _jacobi_sum(coeffs, constants, t)
            assert got.shape == (count, coeffs.shape[1])
            assert (_bits(got) == expected).all(), (depth, entries)


def test_columns_keep_their_shape():
    coeffs, constants, _ = _series(12, 13, seed=7)
    r = _radii(24, seed=7).reshape(24, 1, 1)
    got = _jacobi_sum(coeffs, constants, 2.0 * r * r - 1.0)
    expected = streaming_jacobi_sum(coeffs, constants, (2.0 * r * r - 1.0).reshape(24, 1))
    assert got.shape == (24, 1, coeffs.shape[1])
    assert (_bits(got.reshape(24, -1)) == _bits(expected)).all()
    assert _jacobi_sum(coeffs, constants, np.empty((0, 1))).shape == (0, coeffs.shape[1])


@pytest.mark.parametrize("depth", [1, 2, 8, 21])
def test_one_order_sums_row_by_row(depth):
    # one entry per row: a reduce down the rows would sum pairwise, not in the recurrence's order
    coeffs, constants, _ = _series(0, depth, seed=depth)
    for count in (1, 2, 300):
        r = _radii(count, seed=count)
        t = (2.0 * r * r - 1.0)[:, None]
        assert (_bits(_jacobi_sum(coeffs, constants, t)) == _bits(streaming_jacobi_sum(coeffs, constants, t))).all()
        t = float(t[-1, 0])
        assert _bits(_jacobi_sum(coeffs, constants, t)) == _bits(streaming_jacobi_sum(coeffs, constants, np.full(1, t)))


def test_float_powers_match_the_array_powers():
    _, _, ks = _series(48, 1, seed=0)
    for r in SPECIAL_RADII + list(_radii(2000, seed=11)):
        assert (_bits(r**ks) == _bits(np.full(1, r) ** ks)).all(), r


@pytest.mark.parametrize("k", [0, 3, 10])
def test_eval_weighted_matches_the_streaming_recurrence(k):
    family = build_weighted_family(k, 20)
    for n in range(21):
        coeffs = np.zeros((n + 1, 1))
        coeffs[n] = 1.0
        constants = _jacobi_constants([k], n + 1)
        for x in SPECIAL_RADII + list(_radii(50, seed=n)[4:]):
            t = np.array([[2.0 * x * x - 1.0]])
            expected = float(streaming_jacobi_sum(coeffs, constants, t)[0, 0]) * x**k
            assert _bits(eval_weighted(family, n, x)) == _bits(expected), (n, x)
