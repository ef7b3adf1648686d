import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    ArcSpec,
    ConformalMap,
    DomainError,
    SingularPointError,
    psi,
    psi_inverse,
)

ALPHAS = [math.pi / 6, math.pi / 4, math.pi / 3]


def test_arc_spec_bounds():
    with pytest.raises(DomainError):
        ArcSpec(0.0)
    with pytest.raises(DomainError):
        ArcSpec(math.pi / 2)
    spec = ArcSpec(math.pi / 4)
    lo, hi = spec.interval
    assert lo == pytest.approx(math.pi / 4)
    assert hi == pytest.approx(3 * math.pi / 4)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_endpoint_images(alpha):
    cmap = ConformalMap(ArcSpec(alpha))
    lo, hi = cmap.arc.interval
    assert abs(psi(cmap, 1.0) - cmath.exp(1j * lo)) < 1e-12
    assert abs(psi(cmap, -1.0) - cmath.exp(1j * hi)) < 1e-12
    e_lo, e_hi = cmap.endpoints
    assert abs(e_lo - cmath.exp(1j * lo)) < 1e-15
    assert abs(e_hi - cmath.exp(1j * hi)) < 1e-15


@pytest.mark.parametrize("alpha", ALPHAS)
def test_interior_fixed_point(alpha):
    cmap = ConformalMap(ArcSpec(alpha))
    assert abs(psi(cmap, 1j) - 1j) < 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_inverse_composition(alpha):
    cmap = ConformalMap(ArcSpec(alpha))
    rng = np.random.default_rng(11)
    r = 0.05 + 0.9 * rng.random(100)
    t = math.pi * rng.random(100)
    z = r * np.exp(1j * t)
    back = psi_inverse(cmap, psi(cmap, z))
    assert np.max(np.abs(back - z)) < 1e-10


@pytest.mark.parametrize("alpha", ALPHAS)
def test_boundary_stays_on_circle(alpha):
    cmap = ConformalMap(ArcSpec(alpha))
    # both boundary pieces of the half disk: semicircle and diameter
    t = np.linspace(0.0, math.pi, 500)
    semicircle = np.exp(1j * t)
    diameter = np.linspace(-1.0, 1.0, 500)
    for piece in (semicircle, diameter):
        assert np.max(np.abs(np.abs(psi(cmap, piece)) - 1.0)) < 1e-12


def test_semicircle_lands_on_arc():
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    lo, hi = cmap.arc.interval
    t = np.linspace(1e-3, math.pi - 1e-3, 64)
    angles = np.angle(psi(cmap, np.exp(1j * t)))
    assert np.all(angles > lo - 1e-9)
    assert np.all(angles < hi + 1e-9)


def test_domain_rejections():
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    with pytest.raises(DomainError):
        psi(cmap, 1.5 + 0.0j)
    with pytest.raises(DomainError):
        psi(cmap, 0.5 - 0.2j)
    with pytest.raises(DomainError):
        psi_inverse(cmap, 2.0 + 0.0j)


def test_inverse_singular_at_endpoints():
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    e_lo, e_hi = cmap.endpoints
    for e in (e_lo, e_hi):
        with pytest.raises(SingularPointError):
            psi_inverse(cmap, e)


def test_branch_handles_roundoff_below_real_axis():
    # points produced by the forward map may fall 1e-16 below the real line;
    # the inverse must not jump sheets there
    cmap = ConformalMap(ArcSpec(math.pi / 3))
    z = np.array([0.5 + 1e-17j, 0.5 - 1e-17j])
    w = psi(cmap, z.real)
    back = psi_inverse(cmap, w)
    assert np.max(np.abs(back - 0.5)) < 1e-12


def test_alpha_accepted_as_float():
    cmap = ConformalMap(math.pi / 5)
    assert cmap.alpha == pytest.approx(math.pi / 5)


def test_wide_arc_approaches_identity_like_map():
    # as alpha -> pi/2 the Moebius factor w -> 0 and psi -> its core factor
    cmap = ConformalMap(ArcSpec(math.pi / 2 - 1e-9))
    assert abs(cmap.w) < 1e-9
    z = 0.3 + 0.4j
    p = (1 + z) ** 2
    q = (1 - z) ** 2
    theta = (p - 1j * q) / (p + 1j * q)
    assert abs(psi(cmap, z) - theta) < 1e-8


@pytest.mark.parametrize("point", [complex("nan"), complex(0.5, math.nan), complex(math.nan, 0.5),
                                   complex(math.inf, 0.0), np.array([0.5j, complex("nan")])])
def test_points_with_a_nan_or_infinite_part_are_a_domain_error(point):
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    for inverse in (psi, psi_inverse):
        with pytest.raises(DomainError, match="is not finite"):
            inverse(cmap, point)


def test_alpha_is_read_as_a_real_and_stored_as_a_float():
    for alpha in (True, Fraction(1, 2), np.float32(0.5)):
        spec = ArcSpec(alpha)
        assert type(spec.alpha) is float and spec.alpha == float(alpha)
        assert type(ConformalMap(alpha).alpha) is float
    for bad in ("0.5", None, 0.5j):
        for make in (ArcSpec, ConformalMap):
            with pytest.raises(DomainError, match="is not a real number"):
                make(bad)
    with pytest.raises(DomainError, match="alpha nan is non-finite"):
        ArcSpec(math.nan)
    with pytest.raises(DomainError, match=r"alpha must lie in \(0, pi/2\), got 10{400}"):
        ArcSpec(10**400)
