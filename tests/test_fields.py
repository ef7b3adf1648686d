import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    POTENTIAL,
    DomainError,
    FourierRadialField,
    KindMismatchError,
    RadialProfile,
    conductivity_dtn,
    eval_field,
    eval_field_grid,
    l2_norm_squared,
    moment,
    sample_grid,
)
from eitdisk.quadrature import QuadratureSpec, gauss_legendre_01, trapezoid_periodic


def test_profile_eval_and_sorting():
    p = RadialProfile(((2, -1.0), (0, 2.0)))
    assert p.terms == ((0, 2.0), (2, -1.0))
    assert p(0.5) == pytest.approx(2.0 - 0.25)


def test_profile_rejects_bad_terms():
    with pytest.raises(DomainError):
        RadialProfile(((0, 1.0), (0, 2.0)))
    with pytest.raises(DomainError):
        RadialProfile(((-1, 1.0),))


def test_profile_moments_exact():
    # 2r^2 - 1 against r^3: 2/6 - 1/4 = 1/12
    p = RadialProfile(((0, -1), (2, 2)))
    assert p.moment_exact(3) == Fraction(1, 12)
    q = RadialProfile(((1, 1),))
    assert p.pair_moment_exact(q) == Fraction(2, 5) - Fraction(1, 3)


def test_field_kind_checked():
    with pytest.raises(KindMismatchError):
        FourierRadialField("resistivity", {0: RadialProfile(((0, 1.0),))}, {})


def test_field_rejects_sine_order_zero():
    with pytest.raises(DomainError):
        FourierRadialField(CONDUCTIVITY, {}, {0: RadialProfile(((0, 1.0),))})


def test_eval_field_matches_series():
    f = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1.0),)), 2: RadialProfile(((2, 0.5),))},
        {1: RadialProfile(((1, -0.25),))},
    )
    r, phi = 0.6, 1.1
    expected = 1.0 + 0.5 * r**2 * math.cos(2 * phi) - 0.25 * r * math.sin(phi)
    assert eval_field(f, r, phi) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(DomainError):
        eval_field(f, 1.2, 0.0)


def test_eval_field_grid_matches_scalar():
    f = FourierRadialField(
        POTENTIAL,
        {1: RadialProfile(((1, 1.0), (3, -2.0)))},
        {2: RadialProfile(((4, 0.75),))},
    )
    r = np.array([0.2, 0.5, 0.9])
    phi = np.array([0.0, 2.0, 4.0, 6.0])
    grid = eval_field_grid(f, r, phi)
    assert grid.shape == (3, 4)
    for i, ri in enumerate(r):
        for j, pj in enumerate(phi):
            assert grid[i, j] == pytest.approx(eval_field(f, ri, pj), rel=1e-14)


def test_eval_field_and_grid_add_cosine_then_sine_terms_in_order():
    f = FourierRadialField(
        POTENTIAL,
        {3: RadialProfile(((3, 0.3), (5, -1.25))), 0: RadialProfile(((0, 0.7),)),
         1: RadialProfile(((1, 1.0 / 3),))},
        {2: RadialProfile(((2, -0.6), (4, 0.1))), 1: RadialProfile(((3, 2.5),))},
    )
    terms = [(math.cos, np.cos, k, p) for k, p in sorted(f.cos.items())]
    terms += [(math.sin, np.sin, k, p) for k, p in sorted(f.sin.items())]
    r = np.array([0.0, 0.3, 0.77, 1.0])
    phi = np.array([-1.0, 0.4, 2.9])
    grid = np.zeros((len(r), len(phi)))
    for _, trig, k, prof in terms:
        grid += prof.values_at(r[:, None]) * trig(k * phi[None, :])
    assert eval_field_grid(f, r, phi).tolist() == grid.tolist()
    for ri in r.tolist():
        for pj in phi.tolist():
            total = 0.0
            for trig, _, k, prof in terms:
                total += prof(ri) * trig(k * pj)
            assert eval_field(f, ri, pj) == total


def test_eval_field_grid_calls_a_callable_with_broadcastable_axes():
    seen = []

    def radial_only(r, phi):
        seen.append((r.shape, phi.shape))
        return 2.0 * r

    r = np.array([0.2, 0.5, 0.9])
    phi = np.array([0.0, 2.0, 4.0, 6.0])
    grid = eval_field_grid(radial_only, r, phi)
    assert seen == [((3, 1), (1, 4))]
    assert grid.shape == (3, 4)
    assert grid.tolist() == [[2.0 * ri] * 4 for ri in r]
    # a matched grid is passed as it is
    rg, pg = np.meshgrid(r, phi, indexing="ij")
    assert eval_field_grid(radial_only, rg, pg).tolist() == grid.tolist()
    assert seen[1] == ((3, 4), (3, 4))


def test_moment_accessor():
    f = FourierRadialField(CONDUCTIVITY, {1: RadialProfile(((1, 1.0),))}, {})
    assert moment(f, "cos", 1, 2) == pytest.approx(0.25)
    assert moment(f, "sin", 1, 2) == 0.0


def test_l2_norm_known_values():
    const = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
    assert l2_norm_squared(const) == pytest.approx(math.pi, rel=1e-15)
    # r sin(phi): integral of r^2 sin^2 * r = pi/4
    rsin = FourierRadialField(CONDUCTIVITY, {}, {1: RadialProfile(((1, 1.0),))})
    assert l2_norm_squared(rsin) == pytest.approx(math.pi / 4, rel=1e-15)
    empty = FourierRadialField(CONDUCTIVITY, {}, {})
    assert l2_norm_squared(empty) == 0.0


def test_numpy_integer_profile_values_become_python_ints():
    plain = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 2**62), (1, 2**62)))}, {})
    wide = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, np.int64(2**62)), (1, np.int64(2**62))))}, {})
    assert all(type(v) is int for _, v in wide.cos[0].terms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a wrapped int64 product warns
        got = l2_norm_squared(wide)
    # 2 pi 2^124 integral (1 + r)^2 r dr = 2 pi 2^124 (17/12)
    assert got == l2_norm_squared(plain) == math.pi * float(2 * 2**124 * Fraction(17, 12))
    assert got == pytest.approx(1.893e38, rel=1e-3)


def test_numpy_float_profile_values_become_floats():
    values = (np.float32(0.5), np.float16(-0.25), np.float64(0.1))
    wide = RadialProfile(((0, values[0]), (2, values[1]), (3, values[2])))
    assert all(type(v) is float for _, v in wide.terms)
    plain = RadialProfile(((0, 0.5), (2, -0.25), (3, 0.1)))
    dtn = [conductivity_dtn(FourierRadialField(CONDUCTIVITY, {0: prof, 1: prof}, {2: prof}), 3)
           for prof in (wide, plain)]
    assert dtn[0].exact == dtn[1].exact
    for nan in (math.nan, np.float32(math.nan), np.float16(math.nan)):
        with pytest.raises(DomainError, match="radial profile value nan is non-finite"):
            RadialProfile(((0, 1.0), (2, nan)))
    for bad in ("0.5", None, 1j):
        with pytest.raises(DomainError, match="is not a real number"):
            RadialProfile(((0, bad),))


def test_l2_norm_against_quadrature():
    f = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 0.5), (4, 1.0))), 3: RadialProfile(((3, -1.0),))},
        {2: RadialProfile(((2, 2.0),))},
    )
    quad = QuadratureSpec(32, 128)
    r, wr = gauss_legendre_01(quad.n_r)
    phi, wphi = trapezoid_periodic(quad.n_phi)
    vals = eval_field_grid(f, r, phi)
    numeric = float(wr @ (vals**2 * r[:, None]) @ wphi)
    assert l2_norm_squared(f) == pytest.approx(numeric, rel=1e-12)


def test_sample_grid_layout():
    f = FourierRadialField(CONDUCTIVITY, {1: RadialProfile(((1, 1.0),))}, {})
    rows = sample_grid(f, 1, 4)
    assert rows.shape == (4, 3)
    # single radius r=1, angles 0, pi/2, pi, 3pi/2
    np.testing.assert_allclose(rows[:, 2], [1.0, 0.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(rows[0, :2], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(rows[1, :2], [0.0, 1.0], atol=1e-15)
