"""Half-disk data via reflection and arc data via conformal transplantation."""

import math

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    ArcSpec,
    ConformalMap,
    DomainError,
    FourierRadialField,
    HalfDiskData,
    InconsistentDataError,
    RadialProfile,
    RangeError,
    arc_data,
    arc_forward_oracle,
    arc_invert,
    conductivity_dtn,
    eval_field,
    half_disk_data,
    half_disk_forward_oracle,
    half_disk_invert,
    psi,
    psi_inverse,
    sample_grid,
)
from eitdisk.muntz import _jacobi_constants, _jacobi_sum
from eitdisk.quadrature import QuadratureSpec

CONST = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
COSINE_FIELD = FourierRadialField(
    CONDUCTIVITY,
    {0: RadialProfile(((0, 1.0),)), 1: RadialProfile(((1, 0.5),)), 2: RadialProfile(((2, 1.0),))},
    {},
)


def test_half_disk_oracle_constant():
    # gamma = 1, modes n = k = 1: half of the full-disk diagonal entry
    assert half_disk_forward_oracle(CONST, 1, 1) == pytest.approx(math.pi / 2, rel=1e-12)
    assert half_disk_forward_oracle(CONST, 2, 1) == pytest.approx(0.0, abs=1e-12)


def test_half_disk_oracle_single_harmonic():
    # a_1(r) = r cos(phi) restricted to the half disk, n = 1, k = 2
    field = FourierRadialField(CONDUCTIVITY, {1: RadialProfile(((1, 1.0),))}, {})
    # integrand r^{2} * r * [2 cos windows]: value pi/4 worked out by hand
    assert half_disk_forward_oracle(field, 1, 2) == pytest.approx(math.pi / 4, rel=1e-10)


def test_half_disk_data_matches_reflected_full_disk():
    # reflection identity: data_{n,k} = K[ss]_{n,k} of the evenly extended field
    N = 5
    data = half_disk_data(COSINE_FIELD, N)
    mset = conductivity_dtn(COSINE_FIELD, N)
    np.testing.assert_allclose(data.values, 0.5 * mset.ss, rtol=1e-10, atol=1e-12)


def test_half_disk_mode_guards():
    with pytest.raises(DomainError):
        half_disk_forward_oracle(CONST, 0, 1)
    with pytest.raises(DomainError):
        half_disk_forward_oracle(CONST, 1, -2)


def test_half_disk_roundtrip():
    rec = half_disk_invert(half_disk_data(COSINE_FIELD, 6))
    rng = np.random.default_rng(3)
    for _ in range(40):
        r = 0.05 + 0.9 * rng.random()
        phi = math.pi * rng.random()
        assert rec.evaluate(r, phi) == pytest.approx(
            eval_field(COSINE_FIELD, r, phi), abs=1e-8
        )


def test_half_disk_invert_validates_symmetry():
    data = half_disk_data(COSINE_FIELD, 4)
    skew = data.values.copy()
    skew[0, 1] += 1e-5
    with pytest.raises(InconsistentDataError) as err:
        half_disk_invert(HalfDiskData(skew))
    assert err.value.report.checks[0].name == "data_symmetric"


def test_half_disk_invert_range_guard():
    data = half_disk_data(CONST, 3)
    with pytest.raises(RangeError):
        half_disk_invert(data, N=4)


def test_half_disk_quadrature_consistency():
    # two resolutions agree: the default rule already resolves the integrand
    coarse = half_disk_forward_oracle(COSINE_FIELD, 2, 3, QuadratureSpec(32, 256))
    fine = half_disk_forward_oracle(COSINE_FIELD, 2, 3, QuadratureSpec(64, 512))
    assert coarse == pytest.approx(fine, rel=1e-10, abs=1e-12)


# ------------------------------------------------------------------ arc data


def test_arc_oracle_constant_field():
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    # gamma = 1 transplants to 1, so the half-disk value reappears
    assert arc_forward_oracle(CONST, 1, 1, cmap) == pytest.approx(math.pi / 2, rel=1e-9)


def test_arc_oracle_accepts_callable():
    cmap = ConformalMap(ArcSpec(math.pi / 3))

    def unit(rho, theta):
        return np.ones_like(np.asarray(rho))

    got = arc_forward_oracle(unit, 2, 2, cmap)
    assert got == pytest.approx(math.pi, rel=1e-9)


def test_arc_roundtrip_transplanted_quartic():
    # bump (Im z)^4 on the half disk, pushed to the disk: peaks at the arc
    # midpoint image i, vanishes at the endpoint images
    cmap = ConformalMap(ArcSpec(math.pi / 4))

    def bump(rho, theta):
        z = psi_inverse(cmap, np.asarray(rho) * np.exp(1j * np.asarray(theta)))
        return z.imag**4

    rec = arc_invert(arc_data(bump, cmap, 5), cmap)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        r = 0.05 + 0.9 * rng.random()
        phi = 2.0 * math.pi * rng.random()
        worst = max(worst, abs(rec.evaluate(r, phi) - float(bump(r, phi))))
    assert worst < 1e-9


def test_arc_reconstruction_guards_endpoints():
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    rec = arc_invert(arc_data(CONST, cmap, 3), cmap)
    lo, _ = cmap.arc.interval
    # exactly at an endpoint image the transplant is singular; report 0
    assert rec.evaluate(1.0, lo) == 0.0
    with pytest.raises(DomainError):
        rec.evaluate(1.2, 0.0)


def test_arc_data_is_symmetric():
    cmap = ConformalMap(ArcSpec(math.pi / 6))
    data = arc_data(COSINE_FIELD, cmap, 4)
    np.testing.assert_allclose(data.values, data.values.T, atol=1e-12)


# --------------------------------------- batched data vs per-entry quadrature


def _reference_sine_data(field, N, quad, cmap=None):
    """Sine-mode data entry by entry, with explicit mode gradients.

    Gauss-Legendre on [0, 1] times the closed trapezoid on [0, pi], built from
    numpy alone; with ``cmap`` the field is sampled at psi of each node.
    """
    x, w = np.polynomial.legendre.leggauss(quad.n_r)
    r, wr = (x + 1.0) / 2.0, w / 2.0
    phi = np.linspace(0.0, math.pi, quad.n_phi + 1)
    wphi = np.full(quad.n_phi + 1, math.pi / quad.n_phi)
    wphi[[0, -1]] /= 2.0
    rg, pg = np.meshgrid(r, phi, indexing="ij")
    rho, theta = rg, pg
    if cmap is not None:
        z = psi(cmap, rg * np.exp(1j * pg))
        rho, theta = np.minimum(np.abs(z), 1.0), np.angle(z)
    if isinstance(field, FourierRadialField):
        values = sum(float(v) * rho**p * np.cos(k * theta)
                     for k, prof in field.cos.items() for p, v in prof.terms)
    else:
        values = field(rho, theta)
    weighted = values * np.outer(wr * r, wphi)
    grads = {n: (n * rg ** (n - 1) * np.sin(n * pg), n * rg ** (n - 1) * np.cos(n * pg))
             for n in range(1, N + 1)}
    out = np.empty((N, N))
    for n, (an, bn) in grads.items():
        for k, (ak, bk) in grads.items():
            out[n - 1, k - 1] = np.sum(weighted * (an * ak + bn * bk))
    return out


def _random_half_disk_field(seed, N=8):
    rng = np.random.default_rng(seed)
    cos = {k: RadialProfile(tuple((2 * l + k, rng.uniform(-1, 1)) for l in range(N - k))) for k in range(N)}
    return FourierRadialField(CONDUCTIVITY, cos, {})


def _assert_close_to_reference(values, ref):
    assert values.shape == ref.shape
    assert np.max(np.abs(values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_half_disk_data_matches_per_entry_reference():
    field = _random_half_disk_field(21)
    quad = QuadratureSpec(64, 512)
    _assert_close_to_reference(half_disk_data(field, 8).values, _reference_sine_data(field, 8, quad))


def test_arc_data_matches_per_entry_reference():
    field = _random_half_disk_field(22)
    cmap = ConformalMap(ArcSpec(math.pi / 5))
    quad = QuadratureSpec(64, 1024)

    def gamma(rho, theta):
        z = psi_inverse(cmap, np.asarray(rho) * np.exp(1j * np.asarray(theta)))
        return (1.0 + z.real) * z.imag**2

    _assert_close_to_reference(arc_data(field, cmap, 8).values, _reference_sine_data(field, 8, quad, cmap))
    _assert_close_to_reference(arc_data(gamma, cmap, 8).values, _reference_sine_data(gamma, 8, quad, cmap))


def test_single_entry_oracles_read_the_data_matrix():
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    half = half_disk_data(COSINE_FIELD, 4).values
    arc = arc_data(COSINE_FIELD, cmap, 4).values
    for n, k in ((1, 1), (2, 4), (4, 3)):
        assert half_disk_forward_oracle(COSINE_FIELD, n, k) == pytest.approx(half[n - 1, k - 1], rel=1e-13)
        assert arc_forward_oracle(COSINE_FIELD, n, k, cmap) == pytest.approx(arc[n - 1, k - 1], rel=1e-13)


# ------------------------------------------------------- arc array path


def _bump_reconstruction(alpha=math.pi / 4, N=5):
    cmap = ConformalMap(ArcSpec(alpha))

    def bump(rho, theta):
        z = psi_inverse(cmap, np.asarray(rho) * np.exp(1j * np.asarray(theta)))
        return z.imag**4

    return arc_invert(arc_data(bump, cmap, N), cmap), cmap


def _pointwise_reference(rec, r, phi):
    """Scalar psi^{-1}, then the LM series summed over the exact monomial rows."""
    w = psi_inverse(rec.cmap, r * complex(math.cos(phi), math.sin(phi)))
    rho = min(abs(w), 1.0)
    theta = min(max(math.atan2(w.imag, w.real), 0.0), math.pi)
    total = 0.0
    for k, coeffs in rec.base.p.items():
        rows = rec.base.family(k).rows
        radial = sum(float(c) * sum(float(v) * rho ** (2 * l + k) for l, v in enumerate(rows[n]))
                     for n, c in enumerate(coeffs))
        total += (0.5 if k == 0 else math.cos(k * theta)) * radial
    return total


def test_arc_array_path_matches_pointwise_values_at_interior_samples():
    rec, _ = _bump_reconstruction()
    rng = np.random.default_rng(9)  # criterion 9's samples
    r = 0.05 + 0.9 * rng.random(50)
    phi = 2.0 * math.pi * rng.random(50)
    got = rec(r, phi)
    ref = np.array([_pointwise_reference(rec, ri, pj) for ri, pj in zip(r, phi)])
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert [rec.evaluate(ri, pj) for ri, pj in zip(r, phi)] == list(got)


def test_arc_array_path_guards_both_endpoint_images():
    rec, cmap = _bump_reconstruction()
    lo, hi = cmap.arc.interval
    r = np.array([1.0, 1.0, 1.0 - 5e-10, 1.0 - 5e-10, 0.5])
    phi = np.array([lo, hi, lo, hi, math.pi / 2])
    got = rec(r, phi)
    assert list(got[:4]) == [0.0, 0.0, 0.0, 0.0]
    assert got[4] != 0.0
    # just outside the guard ring the map is evaluated again
    assert rec(1.0 - 1e-6, lo) == pytest.approx(0.0, abs=1e-6)


def test_arc_array_path_rejects_radius_above_one():
    rec, _ = _bump_reconstruction(N=3)
    with pytest.raises(DomainError):
        rec(np.array([0.5, 1.2]), np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        rec.evaluate(1.2, 0.0)


def _single_pass_base_values(base, rho, theta):
    """The half-disk series at (rho, theta), every point running the whole recurrence."""
    ks = np.array([k for k, c in base.p.items() if c], dtype=float)
    coeffs = [[(0.5 if k == 0 else 1.0) * float(v) for v in c] for k, c in base.p.items() if c]
    depth = max(len(c) for c in coeffs)
    table = np.zeros((depth, len(coeffs)))
    for s, c in enumerate(coeffs):
        table[: len(c), s] = c
    rho, theta = rho.reshape(-1, 1), theta.reshape(-1, 1)
    weight = rho**ks
    weight *= np.cos(theta * ks)
    radial = _jacobi_sum(table, _jacobi_constants(ks, depth), 2.0 * rho * rho - 1.0)
    return (radial * weight).sum(axis=1)


def test_arc_values_are_bit_equal_to_a_single_pass_at_criterion_9_samples():
    rec, cmap = _bump_reconstruction()
    rng = np.random.default_rng(9)  # criterion 9's samples
    r = 0.05 + 0.9 * rng.random(50)
    phi = 2.0 * math.pi * rng.random(50)
    w = psi_inverse(cmap, r * (np.cos(phi) + 1j * np.sin(phi)))
    rho = np.minimum(np.abs(w), 1.0)
    theta = np.clip(np.arctan2(w.imag, w.real), 0.0, math.pi)
    expected = _single_pass_base_values(rec.base, rho, theta)
    assert rec(r, phi).tobytes() == expected.tobytes()
    assert np.array([rec.evaluate(ri, pj) for ri, pj in zip(r, phi)]).tobytes() == expected.tobytes()


def test_arc_on_a_column_and_a_row_is_bit_equal_to_the_full_grid():
    rec, _ = _bump_reconstruction()
    radii = np.arange(1, 13) / 12
    angles = 2.0 * math.pi * np.arange(32) / 32
    full = rec(*np.meshgrid(radii, angles, indexing="ij"))
    assert rec(radii[:, None], angles[None, :]).tobytes() == full.tobytes()
    assert sample_grid(rec, 12, 32)[:, 2].tobytes() == full.ravel().tobytes()


@pytest.mark.parametrize("phi", [math.nan, math.inf])
def test_arc_rejects_non_finite_angle(phi):
    rec, _ = _bump_reconstruction(N=3)
    with pytest.raises(DomainError, match="angle"):
        rec(np.array([0.5, 0.5]), np.array([0.0, phi]))
    with pytest.raises(DomainError, match="angle"):
        rec.evaluate(0.5, phi)


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_half_disk_and_arc_invert_reject_nan_or_negative_tolerance(tol):
    data = half_disk_data(CONST, 3)
    with pytest.raises(DomainError, match="tolerance"):
        half_disk_invert(data, tol=tol)
    with pytest.raises(DomainError, match="tolerance"):
        arc_invert(data, ConformalMap(ArcSpec(math.pi / 4)), tol=tol)
