"""Reconstruction.evaluate serving a radius from one pass over the stored angles."""

import math
import sys
import threading

import numpy as np
import pytest

from eitdisk import CONDUCTIVITY, POTENTIAL, Reconstruction, conductivity_dtn, reconstruct, schroedinger_dtn
from test_inverse import _single_pass_values, _span_field

FORWARDS = [(CONDUCTIVITY, conductivity_dtn), (POTENTIAL, schroedinger_dtn)]


def _grid(nr, nphi, offset=0.0):
    return [(i / nr, offset + 2.0 * math.pi * j / nphi) for i in range(1, nr + 1) for j in range(nphi)]


def _walk(rec, points):
    return np.array([rec.evaluate(r, phi) for r, phi in points])


def _assert_bit_equal(rec, points, got):
    r, phi = np.array(points).T
    assert got.tobytes() == rec(r, phi).tobytes()
    assert got.tobytes() == _single_pass_values(rec, r, phi).tobytes()


def _passes(monkeypatch):
    """Count the one-pass evaluations of a radius."""
    calls = []
    batch = Reconstruction._batch

    def counted(self, last):
        calls.append(last[0])
        return batch(self, last)

    monkeypatch.setattr(Reconstruction, "_batch", counted)
    return calls


@pytest.mark.parametrize("N", [12, 24])
@pytest.mark.parametrize("kind,forward", FORWARDS)
@pytest.mark.parametrize("nr,nphi", [(24, 64), (8, 1024)])
def test_grid_walks_are_bit_equal_to_call_and_single_pass(monkeypatch, kind, forward, N, nr, nphi):
    rec = reconstruct(forward(_span_field(kind, N, seed=N + nphi), N))
    passes = _passes(monkeypatch)
    points = _grid(nr, nphi)
    _assert_bit_equal(rec, points, _walk(rec, points))
    # every circle after the first, whose angles are all stored, is served by one pass
    assert passes == [i / nr for i in range(2, nr + 1)]


def test_two_interleaved_grids(monkeypatch):
    rec = reconstruct(schroedinger_dtn(_span_field(POTENTIAL, 12, seed=4), 12))
    passes = _passes(monkeypatch)
    first, second = _grid(12, 64), _grid(16, 48, offset=0.01)
    # circle by circle, one grid then the other, and point by point on radii both share
    by_circle = [p for i in range(16) for p in first[64 * i: 64 * (i + 1)] + second[48 * i: 48 * (i + 1)]]
    shared = [(r, phi) for i in range(1, 5) for j in range(48)
              for r, phi in ((i / 4, 2.0 * math.pi * j / 64), (i / 4, 0.01 + 2.0 * math.pi * j / 48))]
    for points in (by_circle, shared):
        _assert_bit_equal(rec, points, _walk(rec, points))
    assert passes


def test_sparse_circles_after_a_dense_circle(monkeypatch):
    rec = reconstruct(conductivity_dtn(_span_field(CONDUCTIVITY, 12, seed=9), 12))
    passes = _passes(monkeypatch)
    angles = [0.001 * j for j in range(1, 1101)]  # 1024 stored, the last 76 computed per point
    points = [(0.3, phi) for phi in angles]
    for count, r in ((3, 0.4), (16, 0.5), (300, 0.6), (255, 0.7), (1100, 0.8)):
        points += [(r, angles[(37 * j) % 1100]) for j in range(count)]
    _assert_bit_equal(rec, points, _walk(rec, points))
    # circles of fewer points than a quarter of the stored angles make no pass
    assert passes == [0.6, 0.8]


def test_signed_zero_radii_and_angles_in_the_middle_of_a_grid(monkeypatch):
    rec = reconstruct(schroedinger_dtn(_span_field(POTENTIAL, 12, seed=2), 12))
    passes = _passes(monkeypatch)
    points = _grid(6, 64)
    zeros = [(0.0, 1.0), (-0.0, 1.0), (0.5, 0.0), (0.5, -0.0), (0.0, -0.0), (-0.0, 0.0)]
    for at in (64 + 30, 3 * 64 + 40, 5 * 64 + 63):  # circles that have made their pass
        points[at:at] = zeros
    points[100:100] = [(points[99][0], -0.0), (points[99][0], 0.0)]  # the same radius, ±0.0 angles
    _assert_bit_equal(rec, points, _walk(rec, points))
    assert 0.0 not in rec._angle_index and passes


def test_empty_series_walk_a_grid():
    for p, q in (({}, {}), ({0: []}, {1: []})):
        rec = Reconstruction(kind=CONDUCTIVITY, N=2, p=p, q=q, condition={})
        points = _grid(4, 16)
        got = _walk(rec, points)
        _assert_bit_equal(rec, points, got)
        assert not np.signbit(got).any() and len(rec._last_radius[3][1]) == 15


def test_threads_walking_grids_out_of_step():
    rec = reconstruct(schroedinger_dtn(_span_field(POTENTIAL, 12, seed=6), 12))
    points = _grid(8, 64)
    r, phi = np.array(points).T
    expected = _single_pass_values(rec, r, phi).tolist()
    results = {}

    def work(index):
        shift = 37 * index  # each thread starts in another circle, mid-circle
        order = points[shift:] + points[:shift]
        got = [rec.evaluate(ri, pj) for ri, pj in order]
        results[index] = got[-shift:] + got[:-shift] if shift else got

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(6))
    for index, got in results.items():
        assert got == expected, index
    assert sorted(rec._angle_index.values()) == list(range(63))
