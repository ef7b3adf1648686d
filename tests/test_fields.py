import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    POTENTIAL,
    ArcSpec,
    ConformalMap,
    DomainError,
    FourierRadialField,
    KindMismatchError,
    RadialProfile,
    ShapeError,
    arc_data,
    conductivity_dtn,
    eval_field,
    eval_field_grid,
    l2_norm_squared,
    half_disk_data,
    moment,
    sample_grid,
)
from eitdisk.forward import BoundaryMode, energy_oracle, oracle_dtn
from eitdisk.io import field_to_dict
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
    constant = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))})
    for field in (f, constant):  # math.cos(inf) once raised a bare ValueError; a constant field gave NaN
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match=f"angle {bad} is not finite"):
                eval_field(field, 0.5, bad)


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


def test_radial_powers_beyond_the_double_range_evaluate_at_their_limit():
    # 0 below r = 1 and 1 at r = 1; the exact moments keep the power
    profile = RadialProfile(((10**400, 2.0), (1, 0.5)))
    r = np.array([0.0, 0.5, 1.0 - 2**-53, 1.0])
    assert profile.values_at(r).tolist() == [0.0, 0.25, 0.5 * (1.0 - 2**-53), 2.5]
    assert [profile(v) for v in r.tolist()] == profile.values_at(r).tolist()
    assert profile.moment_exact(0) == Fraction(2, 10**400 + 1) + Fraction(1, 4)


_HUGE = {0: [[0, 10**400]]}  # a value beyond the double range; the exact moments keep it
_SMALL_QUAD = QuadratureSpec(8, 16)


@pytest.mark.parametrize("kind", [CONDUCTIVITY, POTENTIAL])
@pytest.mark.parametrize("call, message", [
    (lambda f: eval_field(f, 0.5, 0.0), "radial profile value is beyond the range of a double"),
    (lambda f: eval_field_grid(f, np.array([0.5]), np.array([0.0])), "radial profile value is beyond"),
    (lambda f: sample_grid(f, 2, 3), "radial profile value is beyond"),
    (lambda f: energy_oracle(f, BoundaryMode("cos", 1), BoundaryMode("sin", 1), _SMALL_QUAD), "radial profile"),
    (lambda f: oracle_dtn(f, 2, _SMALL_QUAD), "radial profile value is beyond"),
    (lambda f: half_disk_data(f, 2), "radial profile value is beyond"),  # sine terms: sampled on a grid
    (lambda f: arc_data(f, ConformalMap(ArcSpec(0.5)), 2), "radial profile value is beyond"),
    (lambda f: moment(f, "cos", 0, 0), "the moment is beyond the range of a double"),
    (lambda f: l2_norm_squared(f), "the squared L\\^2 norm is beyond the range of a double"),
    (lambda f: eval_field(f, "0.5", 0.0), "radius '0.5' is not a real number"),
    (lambda f: eval_field(f, 0.5, None), "angle None is not a real number"),
    (lambda f: eval_field(f, 0.5, 10**400), "angle is beyond the range of a double"),
    (lambda f: field_to_dict(f), "radial profile value is beyond the range of a double"),
], ids=["eval_field", "eval_field_grid", "sample_grid", "energy_oracle", "oracle_dtn", "half_disk_data",
        "arc_data", "moment", "l2_norm_squared", "radius_string", "angle_none", "angle_huge", "field_to_dict"])
def test_values_beyond_the_double_range_and_points_that_are_not_real_are_domain_errors(kind, call, message):
    field = FourierRadialField(kind, _HUGE, {1: [[1, 0.5]]})
    with pytest.raises(DomainError, match=message):
        call(field)


@pytest.mark.parametrize("kind", [CONDUCTIVITY, POTENTIAL])
@pytest.mark.parametrize("call, message", [
    (lambda f: sample_grid(f, 2, 3), "field values beyond the range of a double on the grid"),
    (lambda f: oracle_dtn(f, 2, _SMALL_QUAD), "quadrature oracle has an entry beyond the range of a double"),
], ids=["sample_grid", "oracle_dtn"])
def test_sums_beyond_the_double_range_of_terms_within_it_are_domain_errors(kind, call, message):
    field = FourierRadialField(kind, {0: [[0, 1e308], [2, 1e308]]})  # each term a double, their sum at r = 1 not
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(field)


def test_a_squared_norm_that_overflows_only_times_pi_is_a_domain_error():
    field = FourierRadialField(CONDUCTIVITY, {0: [[0, 1.2e154]]})  # the exact sum is 1.44e308, times pi inf
    with pytest.raises(DomainError, match="the squared L\\^2 norm is beyond the range of a double"):
        l2_norm_squared(field)


def test_exact_coordinates_evaluate_as_their_nearest_doubles():
    field = FourierRadialField(CONDUCTIVITY, {0: [[0, 1.0], [2, 0.5]]}, {1: [[1, -0.25]]})
    assert eval_field(field, Fraction(1, 2), 1) == eval_field(field, 0.5, 1.0)
    assert eval_field(field, np.float32(0.5), np.int64(1)) == eval_field(field, 0.5, 1.0)


@pytest.mark.parametrize("r, phi, error, message", [
    (["0.5"], [0.0], DomainError, "radius '0.5' is not a real number"),
    ([None], [0.0], DomainError, "radius None is not a real number"),
    (["x"], [0.0], DomainError, "radius 'x' is not a real number"),
    ([2.0], [0.0], DomainError, "radius 2.0 outside \\[0, 1\\]"),
    ([-0.25], [0.0], DomainError, "radius -0.25 outside \\[0, 1\\]"),
    ([math.nan], [0.0], DomainError, "radius nan outside \\[0, 1\\]"),
    ([0.5], [math.inf], DomainError, "angle inf is not finite"),
    ([0.5], [1j], DomainError, "angle 1j is not a real number"),
    ([[0.5, 0.25], [0.5]], [0.0], ShapeError, "radius rows are not all of one length"),
], ids=["string", "none", "word", "outside", "negative", "nan", "inf_angle", "complex", "ragged"])
@pytest.mark.parametrize("field", [FourierRadialField(CONDUCTIVITY, {0: [[0, 1.0], [2, 1.0]]}),
                                   lambda r, phi: r + 0 * phi], ids=["series", "callable"])
def test_grid_points_follow_the_rule_of_a_reconstruction(field, r, phi, error, message):
    with pytest.raises(error, match=message):
        eval_field_grid(field, r, phi)


def test_grid_points_of_exact_reals_evaluate_as_their_nearest_doubles():
    field = FourierRadialField(CONDUCTIVITY, {0: [[0, 1.0], [2, 1.0]]}, {1: [[1, -0.25]]})
    want = eval_field_grid(field, np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]))
    assert eval_field_grid(field, [0, Fraction(1, 2), True], [False, 1]).tolist() == want.tolist()


def test_common_denominator_equals_the_fraction_reference():
    from eitdisk.fields import _common_denominator

    def reference(values):
        fracs = [Fraction(v) for v in values]
        den = math.lcm(*(q.denominator for q in fracs))
        return [int(q.numerator) * (den // q.denominator) for q in fracs], den

    cases = [[], [0], [3, -7, 2**80], [Fraction(1, 3), Fraction(-5, 12), 2], [-0.0, 0.0, 1.5],
             [5e-324, 2.0**1023, -0.1], [np.int64(-3), np.int64(2**62), Fraction(2, 7), 0.25],
             [True, np.float64(0.375), -(2.0**-1074)]]
    for values in cases:
        nums, den = _common_denominator(values)
        assert (nums, den) == reference(values)
        assert type(den) is int and all(type(n) is int for n in nums)
        assert all(Fraction(n, den) == Fraction(v) for n, v in zip(nums, values))


def test_profile_call_is_values_at_at_seeded_radii():
    rng = np.random.default_rng(67)
    profiles = [RadialProfile(tuple((2 * j, float(rng.normal())) for j in range(6))),
                RadialProfile(tuple((5 * j + 1, Fraction(int(rng.integers(-9, 10)), 7)) for j in range(5))),
                RadialProfile(())]
    r = rng.random(10000)
    for prof in profiles:
        values = [prof(x) for x in r]
        assert all(type(v) is float for v in values)
        assert np.array(values).tobytes() == prof.values_at(r).tobytes()
        assert all(v.hex() == prof.values_at(np.array([x]))[0].hex() for v, x in zip(values, r))


def test_eval_field_checks_its_point_once(monkeypatch):
    import eitdisk.fields

    calls = []
    check = eitdisk.fields._polar_points

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(eitdisk.fields, "_polar_points", counted)
    field = FourierRadialField(CONDUCTIVITY, {0: [[0, 1.0], [2, 1.0]]}, {1: [[1, -0.25]]})
    for f in (field, lambda r, phi: r * np.cos(phi)):
        calls.clear()
        value = eval_field(f, 0.5, 1.0)
        assert len(calls) == 1
        assert value.hex() == float(eval_field_grid(f, [0.5], [1.0])[0, 0]).hex()
    with pytest.raises(DomainError, match="cannot evaluate field of type"):
        eval_field(3.0, 0.5, 1.0)
    with pytest.raises(DomainError, match="radius 2.0 outside"):
        eval_field(3.0, 2.0, 1.0)
