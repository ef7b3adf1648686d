"""Half-disk data via reflection and arc data via conformal transplantation."""

import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import eitdisk.inverse
import eitdisk.partial
from eitdisk import (
    CONDUCTIVITY,
    POTENTIAL,
    ArcSpec,
    ConformalMap,
    DomainError,
    DtnMatrixSet,
    FourierRadialField,
    HalfDiskData,
    InconsistentDataError,
    RadialProfile,
    RangeError,
    ShapeError,
    arc_data,
    arc_forward_oracle,
    arc_invert,
    conductivity_dtn,
    eval_field,
    eval_field_grid,
    half_disk_data,
    half_disk_forward_oracle,
    half_disk_invert,
    psi,
    psi_inverse,
    reconstruct,
    sample_grid,
)
from eitdisk.conformal import _psi_array
from eitdisk.muntz import _jacobi_constants
from eitdisk.partial import ARC_QUAD, HALF_DISK_QUAD, ArcReconstruction
from eitdisk.quadrature import QuadratureSpec, gauss_legendre_01, polar_moments, trapezoid_closed
from jacobi_reference import streaming_jacobi_sum

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
    for N in (0, 4):  # integers, but outside 1..3
        with pytest.raises(RangeError):
            half_disk_invert(data, N=N)


@pytest.mark.parametrize("N, reg_cap, error, message", [
    (4, None, RangeError, "truncation N=4 outside stored range 1..3"),
    (0, None, RangeError, "truncation N=0 outside stored range 1..3"),
    (2.5, None, DomainError, "truncation N"),
    (4, -1, DomainError, "reg_cap"),  # reg_cap is checked first
    (None, 1.5, DomainError, "reg_cap"),
])
def test_half_disk_invert_checks_truncation_as_reconstruct_does(N, reg_cap, error, message):
    for invert, target in ((half_disk_invert, half_disk_data(CONST, 3)), (reconstruct, conductivity_dtn(CONST, 3))):
        with pytest.raises(error) as err:
            invert(target, N=N, reg_cap=reg_cap)
        assert message in str(err.value)


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


# ------------------------------------------------- nested angular refinement


def _one_grid_sine_data(field, N, quad, cmap=None):
    """Sine-mode data from one pass over the full n_r x (n_phi + 1) grid, with no refinement."""
    r, wr = gauss_legendre_01(quad.n_r)
    phi, wphi = trapezoid_closed(quad.n_phi, 0.0, math.pi)
    if cmap is None:
        values = eval_field_grid(field, r, phi)
    else:
        w = _psi_array(cmap, np.outer(r, np.exp(1j * phi)))
        values = eval_field_grid(field, np.minimum(np.abs(w), 1.0), np.angle(w))
    mc, _ = polar_moments(values, r, wr, phi, wphi, 2 * N - 1, N - 1)
    n = np.arange(1, N + 1)
    return np.outer(n, n) * mc[n[:, None] + n - 1, np.abs(n[:, None] - n)]


def _counting_grid(monkeypatch):
    """Patch the data builders' grid evaluator to record the number of angles of each call."""
    angles = []

    def counted(field, r, phi):
        values = eval_field_grid(field, r, phi)
        angles.append(values.shape[1])
        return values

    monkeypatch.setattr(eitdisk.partial, "eval_field_grid", counted)
    return angles


def test_in_span_pullback_is_sampled_at_few_nodes_and_none_twice():
    # criterion 9's gamma = g o psi^{-1}: its pullback g is a trigonometric
    # polynomial, so two levels agree long before the 1024-interval cap
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    g = _random_half_disk_field(23)
    seen = []

    def gamma(rho, theta):
        rho, theta = np.broadcast_arrays(rho, theta)
        seen.extend(zip(rho.ravel().tolist(), theta.ravel().tolist()))
        z = psi_inverse(cmap, rho * np.exp(1j * theta))
        return eval_field_grid(g, np.abs(z), np.angle(z))

    data = arc_data(gamma, cmap, 8).values
    assert len(seen) <= 64 * 65
    assert len(set(seen)) == len(seen)
    _assert_close_to_reference(data, _one_grid_sine_data(gamma, 8, QuadratureSpec(64, 1024), cmap))


def _as_callable(field):
    return lambda rho, theta: eval_field_grid(field, rho, theta)


@pytest.mark.parametrize("callable_", [False, True])
def test_non_even_pullback_reaches_the_cap_bit_for_bit(monkeypatch, callable_):
    # a disk cosine field composed with psi is not even in phi: its data
    # converge only as O(h^2).  Given as a field it is sampled at n_phi in one
    # pass; as a callable its first two levels disagree, so every node of the
    # cap left is sampled in one call.
    field = _random_half_disk_field(22)
    if callable_:
        field = _as_callable(field)
    cmap = ConformalMap(ArcSpec(math.pi / 5))
    quad = QuadratureSpec(64, 1024)
    want = _one_grid_sine_data(field, 8, quad, cmap)
    angles = _counting_grid(monkeypatch)
    got = arc_data(field, cmap, 8).values
    assert angles == ([33, 32, 960] if callable_ else [1025])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("callable_", [False, True])
def test_half_disk_field_with_sine_terms_reaches_the_cap_bit_for_bit(monkeypatch, callable_):
    field = FourierRadialField(CONDUCTIVITY, _random_half_disk_field(25).cos, {1: RadialProfile(((1, 0.5),))})
    if callable_:
        field = _as_callable(field)
    want = _one_grid_sine_data(field, 8, HALF_DISK_QUAD)
    angles = _counting_grid(monkeypatch)
    got = half_disk_data(field, 8).values
    assert angles == ([33, 32, 448] if callable_ else [513])  # as a callable: two levels, then the cap
    assert got.tobytes() == want.tobytes()


def test_a_callable_aliased_on_its_first_level_takes_the_cap_bit_for_bit(monkeypatch):
    # at N = 8 the integrand has cosine orders 57..71: the 32-interval level
    # aliases order 64 to order 0 and the 64-interval level is exact, so the
    # two disagree and the callable is sampled on the rest of the cap
    field = FourierRadialField(
        CONDUCTIVITY, {0: RadialProfile(((0, 1.0),)), 64: RadialProfile(((64, 1.0), (66, -0.5)))}, {})
    field = _as_callable(field)
    want = _one_grid_sine_data(field, 8, HALF_DISK_QUAD)
    angles = _counting_grid(monkeypatch)
    got = half_disk_data(field, 8).values
    assert angles == [33, 32, 448]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [CONDUCTIVITY, POTENTIAL])
def test_cosine_field_data_are_half_the_exact_cc_block_on_no_grid(monkeypatch, kind):
    # the reflection identity, read off the exact assembly of the cosine profiles
    angles = _counting_grid(monkeypatch)
    for N in (1, 5, 8, 16):
        field = FourierRadialField(kind, _random_half_disk_field(30 + N, N).cos, {})
        want = conductivity_dtn(FourierRadialField(CONDUCTIVITY, field.cos), N).cc / 2
        assert half_disk_data(field, N).values.tobytes() == want.tobytes()
    assert angles == []
    assert list(inspect.signature(eitdisk.partial._levels).parameters) == ["field", "N", "n_phi"]
    assert eitdisk.partial._levels(COSINE_FIELD, 8, 512) == [512]


@pytest.mark.parametrize("n_phi", [1, 2, 300, 512, 1024])
@pytest.mark.parametrize("kind", ["cosine field", "sine field", "arc field", "callable", "arc callable"])
def test_levels_are_at_most_three_nested_and_end_at_the_cap(n_phi, kind):
    field = COSINE_FIELD
    if kind == "sine field":
        field = FourierRadialField(CONDUCTIVITY, COSINE_FIELD.cos, {1: RadialProfile(((1, 0.5),))})
    elif kind.endswith("callable"):
        field = _as_callable(COSINE_FIELD)
    for N in (1, 8, 40):  # the arc kinds reach the levels as the half-disk ones do
        levels = eitdisk.partial._levels(field, N, n_phi)
        assert 1 <= len(levels) <= 3
        assert all(coarse < fine and fine % coarse == 0 for coarse, fine in zip(levels, levels[1:]))
        assert levels[-1] == n_phi


@pytest.mark.parametrize("order", [121, 128, 135, 300])
def test_high_cosine_orders_are_sampled_where_the_rule_is_exact(monkeypatch, order):
    # at N = 8 the cosine orders order - 7 .. order + 7 of the integrand
    # include 128, which every node of the 32- and 64-interval levels aliases
    # to order 0: a cosine field is read off the exact assembly instead, and
    # the oracle and a field with a sine term are sampled once at the cap
    field = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1.0),)), order: RadialProfile(((order, 1.0), (order + 2, -0.5)))},
        {},
    )
    want = _one_grid_sine_data(field, 8, HALF_DISK_QUAD)
    angles = _counting_grid(monkeypatch)
    got = half_disk_data(field, 8).values
    assert angles == []
    exact = conductivity_dtn(field, 8).cc / 2
    assert got.tobytes() == exact.tobytes()
    _assert_close_to_reference(got, want)
    oracle = half_disk_forward_oracle(field, 8, 8)
    assert angles == [513]
    assert oracle == want[7, 7]
    assert abs(oracle - exact[7, 7]) <= 1e-13 * np.max(np.abs(exact))
    angles.clear()
    with_sine = FourierRadialField(CONDUCTIVITY, field.cos, {order: RadialProfile(((order, 1.0),))})
    got = half_disk_data(with_sine, 8).values
    assert angles == [513]
    assert got.tobytes() == _one_grid_sine_data(with_sine, 8, HALF_DISK_QUAD).tobytes()


@pytest.mark.parametrize("n_phi", [1, 300])
def test_angular_orders_that_do_not_halve_to_a_power_of_two_still_work(n_phi):
    quad = QuadratureSpec(32, n_phi)
    field = _random_half_disk_field(24, N=4)
    cmap = ConformalMap(ArcSpec(math.pi / 3))
    for N in (1, 4):
        got = half_disk_data(field, N, quad).values  # quad is not read for a cosine field
        assert got.tobytes() == (conductivity_dtn(field, N).cc / 2).tobytes()
        got = arc_data(field, cmap, N, quad).values
        _assert_close_to_reference(got, _reference_sine_data(field, N, quad, cmap))


@pytest.mark.parametrize("cmap", [None, ConformalMap(ArcSpec(math.pi / 4))])
def test_a_nan_at_one_node_gives_the_one_grid_data(monkeypatch, cmap):
    # NaN data never converge, so refinement runs to the cap's single grid
    calls = []

    def one_nan(rho, theta):
        values = 1.0 + 0.5 * rho * np.cos(theta)
        if not calls:
            values[0, 0] = np.nan  # the node r_0, phi = 0, on every level
        calls.append(values.shape)
        return values

    quad = HALF_DISK_QUAD if cmap is None else ARC_QUAD
    want = _one_grid_sine_data(one_nan, 8, quad, cmap)
    calls.clear()
    angles = _counting_grid(monkeypatch)
    got = half_disk_data(one_nan, 8) if cmap is None else arc_data(one_nan, cmap, 8)
    assert np.isnan(want).any() and sum(angles) == quad.n_phi + 1
    np.testing.assert_array_equal(got.values, want)


@pytest.mark.parametrize("N", [8.0, 2.5, True, "8", None])
@pytest.mark.parametrize("build", [
    lambda N: half_disk_data(COSINE_FIELD, N),
    lambda N: arc_data(COSINE_FIELD, ConformalMap(ArcSpec(math.pi / 4)), N),
    lambda N: half_disk_forward_oracle(COSINE_FIELD, N, 1),
    lambda N: arc_forward_oracle(COSINE_FIELD, N, 1, ConformalMap(ArcSpec(math.pi / 4))),
    lambda N: half_disk_forward_oracle(COSINE_FIELD, 8, N),
    lambda N: arc_forward_oracle(COSINE_FIELD, 8, N, ConformalMap(ArcSpec(math.pi / 4))),
], ids=["half_disk_data", "arc_data", "half_disk_forward_oracle_n", "arc_forward_oracle_n",
        "half_disk_forward_oracle_k", "arc_forward_oracle_k"])
def test_data_builders_reject_a_non_integer_mode_count(build, N):
    with pytest.raises(DomainError, match="integer"):
        build(N)
    build(np.int64(4))  # numpy integers are integers


@pytest.mark.parametrize("orders", [(64.5, 512), (64, 512.0), (True, 8), (8, False), ("64", 8), (64, None)])
def test_quadrature_orders_must_be_integers(orders):
    with pytest.raises(DomainError, match="integers"):
        QuadratureSpec(*orders)
    assert QuadratureSpec(np.int64(8), np.int32(16)).n_phi == 16


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
    radial = streaming_jacobi_sum(table, _jacobi_constants(ks, depth), 2.0 * rho * rho - 1.0)
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


@pytest.mark.parametrize("r,phi", [(0.5, 1.0), (0.0, 2.0), (-0.0, 0.3), (1.0, math.pi / 2),
                                   (np.float64(0.25), np.float64(-7.5)), (0.999, 100.0), (0.5, 3)])
def test_scalar_points_are_bit_equal_to_one_element_arrays(r, phi):
    rec, cmap = _bump_reconstruction()
    expected = rec(np.array([r]), np.array([phi]))[0]
    assert np.asarray(rec(r, phi)).tobytes() == np.asarray(expected).tobytes()
    assert float(rec.evaluate(r, phi)).hex() == float(expected).hex()
    base = rec.base
    assert np.asarray(base(r, phi)).tobytes() == base(np.array([r]), np.array([phi]))[0].tobytes()
    assert float(base.evaluate(r, phi)).hex() == float(base(np.array([r]), np.array([phi]))[0]).hex()


@pytest.mark.parametrize("r,phi", [(1.5, 0.0), (-0.25, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                                   (0.5, math.nan), (0.5, -math.inf), (2.0, math.nan),
                                   (np.float64(1.25), 0.0)])
def test_scalar_points_raise_the_array_message(r, phi):
    rec, _ = _bump_reconstruction(N=3)
    with pytest.raises(DomainError) as want:
        rec(np.array([r]), np.array([phi]))
    for call in (rec, rec.evaluate, rec.base, rec.base.evaluate):
        with pytest.raises(DomainError) as got:
            call(r, phi)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("r,phi,text", [("0.5", "1", "radius '0.5'"), (0.5, 1j, "angle 1j"),
                                        (None, 0.0, "radius None"), (0.5, [0.2, None], "angle None")])
def test_coordinates_that_are_not_real_numbers_are_a_domain_error(r, phi, text):
    rec, _ = _bump_reconstruction(N=3)
    for call in (rec, rec.evaluate, rec.base, rec.base.evaluate):
        with pytest.raises(DomainError, match=f"^{text} is not a real number$"):
            call(r, phi)


def test_evaluate_takes_one_point_of_real_numbers():
    rec, _ = _bump_reconstruction(N=3)
    for evaluate in (rec.evaluate, rec.base.evaluate):
        with pytest.raises(DomainError, match="a point is one radius and one angle"):
            evaluate(np.array([0.2, 0.5]), 0.0)
        # other reals read as their floats
        want = evaluate(0.5, 1.0).hex()
        assert evaluate(Fraction(1, 2), 1).hex() == want
        assert evaluate(np.float32(0.5), np.array(1.0)).hex() == want
    assert rec.base.evaluate(0.5, True).hex() == rec.base.evaluate(0.5, 1.0).hex()


def test_arc_call_checks_its_points_once(monkeypatch):
    rec, _ = _bump_reconstruction(N=3)
    calls = []

    def counted(where, check):
        def wrapper(r, phi):
            calls.append(where)
            return check(r, phi)
        return wrapper

    monkeypatch.setattr(eitdisk.partial, "_polar_points", counted("arc", eitdisk.partial._polar_points))
    monkeypatch.setattr(eitdisk.inverse, "_polar_points", counted("base", eitdisk.inverse._polar_points))
    rec.evaluate(0.5, 1.0)
    rec(np.array([0.5, 0.25]), np.array([1.0, 2.0]))
    assert calls == ["arc", "arc"]


@pytest.mark.parametrize("N", [1, 5, 8])
@pytest.mark.parametrize("reg_cap", [None, 2])
def test_half_disk_invert_equals_reconstruct_of_the_doubled_cosine_set(N, reg_cap):
    # the reflection identity: half-disk data D is the cc (and ss) block 2D of a full-disk set
    D = half_disk_data(_random_half_disk_field(17), 8).values
    half = half_disk_invert(D, N, reg_cap=reg_cap)
    full = reconstruct(DtnMatrixSet(CONDUCTIVITY, 8, 2 * D, 2 * D, np.zeros((8, 8)), np.zeros((8, 8))),
                       N, reg_cap=reg_cap, arithmetic="float")
    assert half.p == full.p
    assert half.condition == full.condition
    assert all(c == 0.0 for coeffs in full.q.values() for c in coeffs)


# ------------------------------------------------------- inputs checked where taken


@pytest.mark.parametrize("values", [[[1.0, 0.0]], [1.0, 2.0], [], [[[1.0]]]])
def test_half_disk_data_that_is_not_a_square_matrix_is_a_shape_error(values):
    with pytest.raises(ShapeError, match="half-disk data must be a square matrix"):
        HalfDiskData(values)


@pytest.mark.parametrize("entry", [None, "x", 1j])
def test_half_disk_data_entry_that_is_not_a_real_number_is_a_domain_error(entry):
    with pytest.raises(DomainError, match=re.escape(f"half-disk data entry {entry!r} is not a real number")):
        HalfDiskData([[1.0, 0.0], [entry, 1.0]])


@pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0]], [[Fraction(1), 2], [3]], [[1.0, [2.0]], [3.0, 4.0]]])
def test_ragged_half_disk_data_rows_are_a_shape_error(rows):
    with pytest.raises(ShapeError, match="half-disk data entry rows are not all of one length"):
        HalfDiskData(rows)


def test_real_half_disk_data_entries_read_as_floats():
    values = HalfDiskData([[True, math.nan], [Fraction(1, 2), 3]]).values
    assert values.dtype == float and values[0, 0] == 1.0 and math.isnan(values[0, 1])
    assert values[1].tolist() == [0.5, 3.0]
    floats = np.eye(3)
    assert HalfDiskData(floats).values is floats


@pytest.mark.parametrize("cmap", [0.5, None, ArcSpec(math.pi / 4)])
def test_a_map_that_is_not_a_conformal_map_is_a_domain_error(cmap):
    data = half_disk_data(CONST, 2)
    for call in (lambda: arc_data(CONST, cmap, 2), lambda: arc_forward_oracle(CONST, 1, 1, cmap),
                 lambda: arc_invert(data, cmap), lambda: ArcReconstruction(half_disk_invert(data), cmap)):
        with pytest.raises(DomainError, match="cmap must be a ConformalMap"):
            call()


def test_radial_powers_beyond_the_double_range_give_finite_data():
    # r**p of a power beyond the double range is its limit: 0 below r = 1, 1 at r = 1
    field = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0), (10**400, 1.0)))}, {})
    cmap = ConformalMap(ArcSpec(math.pi / 4))
    for data in (arc_data(field, cmap, 3), half_disk_data(field, 3)):
        assert np.all(np.isfinite(data.values))
