"""Moment extraction, structural validation and the reconstruction round trip."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    POTENTIAL,
    SCHROEDINGER,
    DomainError,
    DtnMatrixSet,
    FourierRadialField,
    InconsistentDataError,
    KindMismatchError,
    MomentData,
    RadialProfile,
    RangeError,
    Reconstruction,
    admissibility,
    build_weighted_family,
    condition_sums,
    conductivity_dtn,
    extra_hankel_moments,
    extract_conductivity_moments,
    extract_schroedinger_moments,
    gram_matrix,
    inverse_matrix,
    l2_norm_squared,
    reconstruct,
    sample_grid,
    schroedinger_dtn,
    solve_moment_problem,
    validate,
)
from eitdisk import io as eio
from eitdisk.forward import BLOCK_NAMES
from eitdisk.inverse import _ANGLE_ROWS
from eitdisk.muntz import ExponentSequence, _jacobi_constants
from jacobi_reference import streaming_jacobi_sum

CONST_COND = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
CONST_POT = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0),))}, {})


def _mixed_field(kind):
    return FourierRadialField(
        kind,
        {0: RadialProfile(((0, 1.0), (2, 0.5))), 1: RadialProfile(((1, 0.25),)),
         2: RadialProfile(((2, 1.0),))},
        {1: RadialProfile(((1, 0.5),)), 2: RadialProfile(((4, -0.75),))},
    )


def _perturbed(mset, name, i, j, eps=1e-6):
    blocks = {n: mset.block(n).copy() for n in BLOCK_NAMES}
    blocks[name][i, j] += eps
    return DtnMatrixSet(mset.kind, mset.N, **blocks)


# ---------------------------------------------------------------- validation


def test_validate_exact_sets_have_zero_deviation():
    for mset in (conductivity_dtn(_mixed_field(CONDUCTIVITY), 5),
                 schroedinger_dtn(_mixed_field(POTENTIAL), 5)):
        report = validate(mset)
        assert report.passed
        assert report.max_deviation == 0.0


def test_validate_detects_symmetry_break():
    mset = conductivity_dtn(_mixed_field(CONDUCTIVITY), 4)
    report = validate(_perturbed(mset, "cc", 0, 1), tol=1e-9)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "cc_symmetric" in failed
    assert report.max_deviation == pytest.approx(1e-6, rel=1e-6)


def test_validate_detects_hankel_break():
    mset = schroedinger_dtn(_mixed_field(POTENTIAL), 4)
    report = validate(_perturbed(mset, "ss", 0, 0), tol=1e-9)
    failed = {c.name for c in report.checks if not c.passed}
    assert "ss_minus_cc_hankel" in failed


def test_validate_covers_every_conductivity_entry():
    mset = conductivity_dtn(_mixed_field(CONDUCTIVITY), 4)
    for name in BLOCK_NAMES:
        shape = mset.block(name).shape
        for i in range(shape[0]):
            for j in range(shape[1]):
                assert not validate(_perturbed(mset, name, i, j), tol=1e-9).passed, (name, i, j)


def test_validate_covers_potential_entries_with_known_exceptions():
    # cc[0,0], cc[N,N], ss[N,N] each hold a moment seen nowhere else in the
    # truncated set, so no identity can witness a change in them
    N = 4
    mset = schroedinger_dtn(_mixed_field(POTENTIAL), N)
    free = {("cc", 0, 0), ("cc", N, N), ("ss", N - 1, N - 1)}
    for name in BLOCK_NAMES:
        shape = mset.block(name).shape
        for i in range(shape[0]):
            for j in range(shape[1]):
                detected = not validate(_perturbed(mset, name, i, j), tol=1e-9).passed
                assert detected == ((name, i, j) not in free), (name, i, j)


def test_report_lines_format():
    report = validate(conductivity_dtn(CONST_COND, 3))
    lines = list(report.lines())
    assert len(lines) == len(report.checks)
    assert all(line.endswith("[ok]") for line in lines)


# ---------------------------------------------------------------- extraction


def test_extract_constant_conductivity():
    mset = conductivity_dtn(CONST_COND, 5)
    data = extract_conductivity_moments(mset, 0)
    # K diag / (i^2 pi) = 2 * int r^{2m+1} dr = 1/(m+1)
    assert data.values == tuple(Fraction(1, m + 1) for m in range(5))
    assert data.origin_shift == 1


def test_extract_single_harmonic():
    field = FourierRadialField(CONDUCTIVITY, {1: RadialProfile(((1, 1.0),))}, {})
    data = extract_conductivity_moments(conductivity_dtn(field, 4), 1)
    # int r^{2m+2} r dr = 1/(2m+4)
    assert data.values == tuple(Fraction(1, 2 * m + 4) for m in range(3))


def test_extract_range_errors():
    mset = conductivity_dtn(CONST_COND, 3)
    with pytest.raises(RangeError):
        extract_conductivity_moments(mset, 3)
    with pytest.raises(RangeError):
        extract_conductivity_moments(mset, 0, "sin")


def test_extract_from_a_set_of_the_other_kind_is_a_kind_mismatch():
    with pytest.raises(KindMismatchError, match="^expected a schroedinger set, got 'conductivity'$"):
        extract_schroedinger_moments(conductivity_dtn(CONST_COND, 3), 0)
    with pytest.raises(KindMismatchError, match="^expected a conductivity set, got 'schroedinger'$"):
        extract_conductivity_moments(schroedinger_dtn(CONST_POT, 3), 0)


def test_extract_constant_potential():
    mset = schroedinger_dtn(CONST_POT, 4)
    data = extract_schroedinger_moments(mset, 0)
    # doubled convention: d_m = 2 int r^{2m+1} dr = 1/(m+1)
    assert data.values[0] == Fraction(1)
    assert data.values[1] == Fraction(1, 2)
    assert data.origin_shift == 0
    assert len(data.values) == 5


def test_extract_potential_sine_lowest_moment():
    # the two mixed entries are equal; each alone is the moment
    field = FourierRadialField(POTENTIAL, {}, {1: RadialProfile(((1, 1.0),))})
    mset = schroedinger_dtn(field, 3)
    data = extract_schroedinger_moments(mset, 1, "sin")
    assert data.values[0] == Fraction(1, 4)  # int r^2 * r dr
    assert data.values[1] == Fraction(1, 6)  # int r^4 * r dr


def test_extract_float_path_matches_exact():
    field = _mixed_field(POTENTIAL)
    mset = schroedinger_dtn(field, 5)
    floats = DtnMatrixSet(SCHROEDINGER, 5, mset.cc, mset.ss, mset.sc, mset.cs)
    for k in range(3):
        exact = extract_schroedinger_moments(mset, k).values
        loose = extract_schroedinger_moments(floats, k).values
        np.testing.assert_allclose([float(v) for v in exact], loose, rtol=1e-13)


# ------------------------------------------------------------------- solver


def test_solver_identity_on_gram_columns():
    # feeding column n of the moment matrix must return the unit vector e_n
    k, size = 2, 5
    seq = ExponentSequence.shifted(k, size)
    gram = gram_matrix(seq, size)
    for n in range(size):
        column = tuple(gram.entry(l, n) if l >= n else Fraction(0) for l in range(size))
        coeffs = solve_moment_problem(MomentData(k=k, parity="cos", values=column, origin_shift=0))
        assert coeffs == [Fraction(1) if m == n else Fraction(0) for m in range(size)]


def test_solver_constant_profile():
    # moments of the constant 1: values[m] = 1/(2m+2), solution (1, 0, ...)
    values = tuple(Fraction(1, 2 * m + 2) for m in range(4))
    coeffs = solve_moment_problem(MomentData(k=0, parity="cos", values=values, origin_shift=1))
    assert coeffs == [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]


def test_numpy_integer_moments_and_coefficients_stay_exact():
    plain = solve_moment_problem(MomentData(k=1, parity="cos", values=(1, 2, 3), origin_shift=1))
    wide = solve_moment_problem(MomentData(k=1, parity="cos", values=tuple(map(np.int64, (1, 2, 3))),
                                           origin_shift=1))
    assert wide == plain and all(type(c) is Fraction for c in wide)
    flags = solve_moment_problem(MomentData(k=1, parity="cos", values=(True, 2), origin_shift=1))
    assert all(type(c) is float for c in flags)  # bools are not exact values
    fields = [Reconstruction(CONDUCTIVITY, 3, {1: cs}, {2: cs}, {}).to_field()
              for cs in ([1, 2, 3], [np.int64(1), np.int64(2), np.int64(3)])]
    assert fields[1] == fields[0]
    assert all(type(v) is Fraction for table in (fields[1].cos, fields[1].sin)
               for prof in table.values() for _, v in prof.terms)


def test_solver_float_path_close_to_exact():
    values = tuple(Fraction(1, 2 * m + 2) for m in range(6))
    exact = solve_moment_problem(MomentData(k=0, parity="cos", values=values, origin_shift=1))
    floats = solve_moment_problem(
        MomentData(k=0, parity="cos", values=tuple(float(v) for v in values), origin_shift=1)
    )
    np.testing.assert_allclose(floats, [float(c) for c in exact], atol=5e-13)


def test_condition_sums_strictly_monotone():
    sums = condition_sums(0, 11)
    assert sums[:3] == [2.0, 18.0, 130.0]
    assert all(b > a for a, b in zip(sums, sums[1:]))


# ------------------------------------------------------------- reconstruction


def test_reconstruct_constant_conductivity():
    rec = reconstruct(conductivity_dtn(CONST_COND, 6))
    assert rec.p[0][0] == Fraction(2)  # doubled k = 0 convention
    assert all(c == 0 for c in rec.p[0][1:])
    assert all(c == 0 for k in range(1, 6) for c in rec.p[k])
    assert rec.evaluate(0.37, 2.1) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("kind,forward", [
    (CONDUCTIVITY, conductivity_dtn),
    (POTENTIAL, schroedinger_dtn),
])
def test_roundtrip_exact(kind, forward):
    field = _mixed_field(kind)
    rec = reconstruct(forward(field, 6))
    back = rec.to_field()
    for k, prof in field.cos.items():
        for power, value in prof.terms:
            assert dict(back.cos[k].terms)[power] == Fraction(value)
    for k, prof in field.sin.items():
        for power, value in prof.terms:
            assert dict(back.sin[k].terms)[power] == Fraction(value)
    # everything not present in the input must come back identically zero
    for k, prof in back.cos.items():
        for power, value in prof.terms:
            if power not in dict(field.cos_profile(k).terms):
                assert value == 0
    assert rec.evaluate(0.5, 0.8) == pytest.approx(
        (lambda r, p: 1.0 + 0.5 * r**2 + 0.25 * r * math.cos(p) + r**2 * math.cos(2 * p)
         + 0.5 * r * math.sin(p) - 0.75 * r**4 * math.sin(2 * p))(0.5, 0.8),
        rel=1e-13,
    )


def test_roundtrip_float_blocks():
    field = _mixed_field(CONDUCTIVITY)
    mset = conductivity_dtn(field, 6)
    floats = DtnMatrixSet(CONDUCTIVITY, 6, mset.cc, mset.ss, mset.sc, mset.cs)
    back = reconstruct(floats).to_field()
    for k, prof in field.cos.items():
        got = dict(back.cos[k].terms)
        for power, value in prof.terms:
            assert got[power] == pytest.approx(value, abs=1e-9)


def test_roundtrip_rational_lift_of_floats():
    # dyadic float data still admits an exact solve after lifting
    mset = conductivity_dtn(CONST_COND, 4)
    floats = DtnMatrixSet(CONDUCTIVITY, 4, mset.cc, mset.ss, mset.sc, mset.cs)
    rec = reconstruct(floats, arithmetic="rational")
    assert isinstance(rec.p[1][0], Fraction)


def test_reconstruct_rejects_inconsistent_data():
    mset = conductivity_dtn(_mixed_field(CONDUCTIVITY), 4)
    with pytest.raises(InconsistentDataError) as err:
        reconstruct(_perturbed(mset, "cc", 0, 1))
    assert not err.value.report.passed


def test_reconstruct_tolerates_noise_within_tol():
    mset = conductivity_dtn(CONST_COND, 4)
    noisy = _perturbed(mset, "cc", 0, 1, eps=1e-12)
    rec = reconstruct(noisy, tol=1e-9)
    assert rec.evaluate(0.4, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_range_and_mode_guards():
    mset = conductivity_dtn(CONST_COND, 3)
    for N in (0, 4):  # integers, but outside 1..3
        with pytest.raises(RangeError):
            reconstruct(mset, N=N)
    with pytest.raises(DomainError):
        reconstruct(mset, arithmetic="decimal")
    with pytest.raises(DomainError):
        reconstruct(mset, reg_cap=-1)


def test_reconstruct_truncation_and_reg_cap():
    field = _mixed_field(CONDUCTIVITY)
    rec = reconstruct(conductivity_dtn(field, 6), N=3, reg_cap=1)
    assert set(rec.p) == {0, 1, 2}
    assert all(len(c) <= 2 for c in rec.p.values())


# ------------------------------------------------------ nullspace behaviour


def test_basis_element_beyond_triangle_is_invisible():
    # LM^1_3 has vanishing low moments; with N = 4 the order-1 window sees 3
    N, k = 4, 1
    fam = build_weighted_family(k, N - k)
    prof = RadialProfile(tuple((2 * l + k, fam.rows[N - k][l]) for l in range(N - k + 1)))
    field = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1),)), k: prof}, {})
    rec = reconstruct(conductivity_dtn(field, N), arithmetic="rational")
    assert rec.p[k] == [Fraction(0)] * (N - k)
    assert rec.p[0] == [Fraction(2)] + [Fraction(0)] * (N - 1)


def test_monomial_beyond_triangle_projects():
    # r^7 cos(phi) at N = 4: recovered coefficients are the weighted
    # orthogonal projection, A[L,n] * (4n + 2k + 2) for the shifted sequence
    N, k, L = 4, 1, 3
    field = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1),)), k: RadialProfile(((2 * L + k, 1),))},
        {},
    )
    rec = reconstruct(conductivity_dtn(field, N), arithmetic="rational")
    gram = gram_matrix(ExponentSequence.shifted(k, L + 1), L + 1)
    expected = [gram.entry(L, n) * (4 * n + 2 * k + 2) for n in range(N - k)]
    assert rec.p[k] == expected
    assert rec.p[k] == [Fraction(2, 5), Fraction(2, 5), Fraction(6, 35)]


# ------------------------------------------------------------- diagnostics


def test_admissibility_matches_l2_norm():
    field = _mixed_field(CONDUCTIVITY)
    rec = reconstruct(conductivity_dtn(field, 6))
    assert admissibility(rec) == pytest.approx(l2_norm_squared(field) / math.pi, rel=1e-12)


def test_admissibility_constant_field():
    rec = reconstruct(conductivity_dtn(CONST_COND, 4))
    assert admissibility(rec) == pytest.approx(1.0, rel=1e-14)


def test_extra_hankel_moments_reported():
    field = FourierRadialField(
        POTENTIAL,
        {4: RadialProfile(((4, 1.0),))},
        {3: RadialProfile(((3, 1.0),))},
    )
    N = 3
    mset = schroedinger_dtn(field, N)
    extra = extra_hankel_moments(mset)
    assert set(extra["cos"]) == set(range(N + 1, 2 * N + 1))
    # (cc - ss) anti-diagonal l = 4 equals pi * int r^5 a_4 = pi/10
    assert extra["cos"][4] == pytest.approx(0.1, rel=1e-13)
    # (sc + cs) anti-diagonal l = 3 lives in the stored window, l = 4 beyond:
    # int r^5 b_3 absent, the order-3 sine profile shows at l = 3 only
    assert extra["sin"][4] == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(KindMismatchError):
        extra_hankel_moments(conductivity_dtn(CONST_COND, 3))


def test_float_extra_hankel_moments_average_each_antidiagonal_over_pi():
    field = FourierRadialField(
        POTENTIAL,
        {k: RadialProfile(((k, 0.3 + k), (k + 2, -0.7))) for k in range(8)},
        {k: RadialProfile(((k + 1, 0.1 * k),)) for k in range(1, 8)},
    )
    N = 4
    exact = schroedinger_dtn(field, N)
    rng = np.random.default_rng(11)
    mset = DtnMatrixSet(SCHROEDINGER, N, **{
        n: exact.block(n) + 1e-9 * rng.standard_normal(exact.block(n).shape) for n in BLOCK_NAMES})
    cc, ss, sc, cs = (mset.block(n).tolist() for n in ("cc", "ss", "sc", "cs"))
    extra = extra_hankel_moments(mset)
    for l in range(N + 1, 2 * N + 1):
        diagonal = range(l - N, N + 1)
        groups = {"cos": [cc[i][l - i] - ss[i - 1][l - i - 1] for i in diagonal],
                  "sin": [sc[i - 1][l - i] + cs[i][l - i - 1] for i in diagonal]}
        for parity, group in groups.items():
            assert extra[parity][l] == sum(v / math.pi for v in group) / len(group)


def test_cancelling_hankel_part_gives_positive_zero_extra_moments():
    mset = schroedinger_dtn(_mixed_field(POTENTIAL), 3)  # no order beyond 2
    for s in (mset, DtnMatrixSet(mset.kind, mset.N, **{n: mset.block(n) for n in BLOCK_NAMES})):
        values = [v for table in extra_hankel_moments(s).values() for v in table.values()]
        assert len(values) == 6
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)


def test_admissibility_sums_cosines_then_sines_term_by_term():
    recs = [reconstruct(schroedinger_dtn(_mixed_field(POTENTIAL), 4), arithmetic="float"),
            Reconstruction(SCHROEDINGER, 2, p={0: [1.0, 0.5], 1: []}, q={1: [1.0], 2: [0.25, 3.0]},
                           condition={})]
    for rec in recs:
        terms = [(0.25 if k == 0 else 0.5, k, n, c) for k, cs in rec.p.items() for n, c in enumerate(cs)]
        terms += [(0.5, k, n, c) for k, cs in rec.q.items() for n, c in enumerate(cs)]
        expected = 0.0
        for w, k, n, c in terms:
            expected += w * float(c) ** 2 / (2 * n + k + 1)
        assert admissibility(rec) == expected


# ------------------------------------------------------------ evaluation


def _span_field(kind, N, seed):
    """Random small rationals on every LM span power of truncation N."""
    rng = np.random.default_rng(seed)
    top = N if kind == CONDUCTIVITY else N + 1

    def profile(k):
        return RadialProfile(tuple(
            (2 * l + k, Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9))))
            for l in range(top - k)))

    return FourierRadialField(kind, {k: profile(k) for k in range(top)},
                              {k: profile(k) for k in range(1, top)})


def _exact_radial_grid(field, radii, phi):
    """Each radial profile summed exactly at the rational radii, times float trig."""
    out = np.zeros((len(radii), len(phi)))
    for trig, table in ((np.cos, field.cos), (np.sin, field.sin)):
        for k, prof in table.items():
            radial = [float(sum((Fraction(v) * r**p for p, v in prof.terms), Fraction(0))) for r in radii]
            out += np.outer(radial, trig(k * phi))
    return out


@pytest.mark.parametrize("kind,forward", [
    (CONDUCTIVITY, conductivity_dtn),
    (POTENTIAL, schroedinger_dtn),
])
def test_grid_evaluation_matches_exact_reference_at_N24(kind, forward):
    # the recurrence stays within about 1e-15 of the largest value; a Horner
    # pass over the monomial rows is off by up to 3e-12 of it on this grid
    field = _span_field(kind, 24, seed=24)
    rec = reconstruct(forward(field, 24))
    radii = [Fraction(i, 24) for i in range(25)]
    phi = 2.0 * math.pi * np.arange(16) / 16
    ref = _exact_radial_grid(field, radii, phi)
    r = np.array([float(x) for x in radii])
    got = rec(r[:, None], phi[None, :])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_call_equals_evaluate_at_every_node():
    rec = reconstruct(schroedinger_dtn(_mixed_field(POTENTIAL), 6))
    r = np.arange(0, 9) / 8
    phi = 2.0 * math.pi * np.arange(10) / 10
    grid = rec(r[:, None], phi)
    pointwise = np.array([[rec.evaluate(float(ri), float(pj)) for pj in phi] for ri in r])
    np.testing.assert_array_equal(grid, pointwise)
    assert rec(0.5, 0.8).shape == ()


def test_call_rejects_radius_outside_unit_interval():
    rec = reconstruct(conductivity_dtn(CONST_COND, 3))
    with pytest.raises(DomainError, match="1.5"):
        rec(np.array([0.5, 1.5]), 0.0)
    with pytest.raises(DomainError):
        rec(np.nan, 0.0)
    with pytest.raises(DomainError):
        rec.evaluate(-0.1, 0.0)


def test_family_is_built_on_demand():
    rec = reconstruct(conductivity_dtn(_mixed_field(CONDUCTIVITY), 5))
    assert rec.family(2).rows == build_weighted_family(2, 2).rows
    with pytest.raises(KeyError):
        rec.family(9)


# ------------------------------------------------- evaluation per radius


def _single_pass_values(rec, r, phi):
    """Each point runs the whole recurrence: r**k * trig, times the radial sum, summed."""
    series = [(k, 0.5 if k == 0 else 1.0, c) for k, c in rec.p.items() if c]
    ncos = len(series)
    series += [(k, 1.0, c) for k, c in rec.q.items() if c]
    depth = max((len(c) for _, _, c in series), default=1)
    coeffs = np.zeros((depth, len(series)))
    for s, (_, scale, c) in enumerate(series):
        coeffs[: len(c), s] = [scale * float(v) for v in c]
    ks = np.array([k for k, _, _ in series], dtype=float)
    r = np.asarray(r, dtype=float).reshape(-1, 1)
    phi = np.asarray(phi, dtype=float).reshape(-1, 1)
    angle = phi * ks
    weight = r**ks
    weight[:, :ncos] *= np.cos(angle[:, :ncos])
    weight[:, ncos:] *= np.sin(angle[:, ncos:])
    radial = streaming_jacobi_sum(coeffs, _jacobi_constants(ks, depth), 2.0 * r * r - 1.0)
    return (radial * weight).sum(axis=1)


def _point_orders(nr, nphi, seed):
    nodes = [(i / nr, 2.0 * math.pi * j / nphi) for i in range(1, nr + 1) for j in range(nphi)]
    angle_outer = [(r, phi) for j in range(nphi) for r, phi in nodes[j::nphi]]
    rng = np.random.default_rng(seed)
    shuffled = [nodes[i] for i in rng.permutation(len(nodes))]
    # every angle again, at other radii, once its row is stored; then the angles negated
    # (-0.0 among them), each at its own radius
    revisited = angle_outer + shuffled
    signed = [(r, -phi if i % 2 else phi) for i, (r, phi) in enumerate(shuffled)]
    return {"radius-outer": nodes, "angle-outer": angle_outer, "shuffled": shuffled, "revisited": revisited,
            "signed": signed}


@pytest.mark.parametrize("N", [12, 24])
@pytest.mark.parametrize("kind,forward", [
    (CONDUCTIVITY, conductivity_dtn),
    (POTENTIAL, schroedinger_dtn),
])
def test_evaluate_is_bit_equal_to_single_pass_in_every_order(kind, forward, N):
    rec = reconstruct(forward(_span_field(kind, N, seed=N + 1), N))
    for order, points in _point_orders(12, 16, seed=N).items():
        r, phi = np.array(points).T
        got = np.array([rec.evaluate(ri, pj) for ri, pj in points])
        assert got.tobytes() == _single_pass_values(rec, r, phi).tobytes(), order
        assert got.tobytes() == rec(r, phi).tobytes(), order


def test_interleaved_radii_never_read_a_stale_row():
    rec = reconstruct(schroedinger_dtn(_mixed_field(POTENTIAL), 6))
    # 0.0 and -0.0 compare equal, but their odd powers differ in sign
    for pair in ((0.25, 0.75), (0.0, -0.0), (0.5, 0.5 + 2.0**-53)):
        points = [(pair[i % 2], 0.3 * i) for i in range(12)]
        r, phi = np.array(points).T
        got = np.array([rec.evaluate(ri, pj) for ri, pj in points])
        assert got.tobytes() == _single_pass_values(rec, r, phi).tobytes(), pair


def test_signed_zero_radius_and_angle_match_the_single_pass():
    # with one sine series only, every term at r = 0 or phi = 0 is a zero
    # whose sign follows the sign of r or phi; with every series empty each
    # value is +0.0; an int angle reads as its float
    points = [(0.0, 0.3), (-0.0, 0.3), (0.5, 0.0), (0.5, -0.0), (0.5, 2)]
    r, phi = np.array(points).T
    for p, q in (({}, {1: [1.0]}), ({}, {}), ({0: []}, {1: []})):
        rec = Reconstruction(kind=CONDUCTIVITY, N=2, p=p, q=q, condition={})
        expected = _single_pass_values(rec, r, phi)
        got = np.array([rec.evaluate(ri, pj) for ri, pj in points])
        assert got.tobytes() == expected.tobytes()
        assert rec(np.repeat(r, 2), np.repeat(phi, 2)).tobytes() == np.repeat(expected, 2).tobytes()


def test_threads_sharing_a_reconstruction_read_matching_rows():
    rec = reconstruct(schroedinger_dtn(_mixed_field(POTENTIAL), 6))
    points = [((1 + i % 5) / 5, 0.1 * i) for i in range(200)]
    r, phi = np.array(points).T
    expected = _single_pass_values(rec, r, phi).tolist()
    results = {}

    def work(index):
        order = points[index:] + points[:index]  # each thread walks the radii out of step
        got = [rec.evaluate(ri, pj) for ri, pj in order]
        results[index] = got[-index:] + got[:-index] if index else got

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


def test_two_reconstructions_keep_their_own_rows():
    # different series sets, so a radial or angular row read from another reconstruction is of the wrong length
    recs = [reconstruct(schroedinger_dtn(_mixed_field(POTENTIAL), 6)),
            reconstruct(conductivity_dtn(_mixed_field(CONDUCTIVITY), 5)),
            Reconstruction(CONDUCTIVITY, 3, {0: [1.0]}, {2: [0.5, 0.25]}, {})]
    points = [(0.2 * i, 0.4 * j) for i in range(1, 6) for j in range(8)]
    got = [[rec.evaluate(r, phi) for rec in recs] for r, phi in points]
    r, phi = np.array(points).T
    for rec, values in zip(recs, zip(*got)):
        assert np.array(values).tobytes() == _single_pass_values(rec, r, phi).tobytes()
        assert np.array(values).tobytes() == rec(r, phi).tobytes()
        assert rec._rows.shape[1] == len(rec._table[2])
    assert [len(rec._angle_index) for rec in recs] == [7] * 3
    tables = [rec._rows for rec in recs]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(tables) for b in tables[:i])


def test_angle_rows_stop_at_the_cap():
    rec = reconstruct(schroedinger_dtn(_mixed_field(POTENTIAL), 6))
    # 1100 distinct angles on one circle, then in reverse on another: the first 1024 are stored,
    # the rest computed each time
    angles = [0.001 * j for j in range(1, 1101)]
    points = [(0.3, phi) for phi in angles] + [(0.7, phi) for phi in reversed(angles)] + [(0.5, 0.0), (0.5, -0.0)]
    r, phi = np.array(points).T
    got = np.array([rec.evaluate(ri, pj) for ri, pj in points])
    assert got.tobytes() == rec(r, phi).tobytes()
    assert got.tobytes() == _single_pass_values(rec, r, phi).tobytes()
    assert _ANGLE_ROWS == 1024 and list(rec._angle_index.items()) == list(zip(angles, range(1024)))
    assert rec._rows.shape[0] == 1024


def test_array_path_on_repeated_radii_is_bit_equal_to_points():
    rec = reconstruct(schroedinger_dtn(_span_field(POTENTIAL, 12, seed=5), 12))
    r = np.repeat(np.arange(1, 25) / 24, 64)
    phi = np.tile(2.0 * math.pi * np.arange(64) / 64, 24)
    pointwise = np.array([rec.evaluate(ri, pj) for ri, pj in zip(r, phi)])
    assert rec(r, phi).tobytes() == pointwise.tobytes()
    assert rec(r.reshape(24, 64), phi.reshape(24, 64)).ravel().tobytes() == pointwise.tobytes()
    # repeats in any order, with a few angles repeated and the rest scattered
    rng = np.random.default_rng(3)
    perm = rng.permutation(r.size)
    assert rec(r[perm], phi[perm]).tobytes() == pointwise[perm].tobytes()
    scattered = 2.0 * math.pi * rng.random(r.size)
    assert rec(r, scattered).tobytes() == _single_pass_values(rec, r, scattered).tobytes()
    # a column of radii against a row of angles, as eval_field_grid passes them
    column, row = r[::64, None], phi[None, :64]
    assert rec(column, row).shape == (24, 64)
    assert rec(column, row).ravel().tobytes() == pointwise.tobytes()
    assert rec(column, phi[:64]).ravel().tobytes() == pointwise.tobytes()
    assert rec(r[64], phi[:64]).tobytes() == pointwise[64:128].tobytes()
    assert sample_grid(rec, 24, 64)[:, 2].tobytes() == pointwise.tobytes()


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_is_a_domain_error(phi):
    rec = reconstruct(conductivity_dtn(_mixed_field(CONDUCTIVITY), 4))
    with pytest.raises(DomainError, match="angle"):
        rec.evaluate(0.5, phi)
    with pytest.raises(DomainError, match="angle"):
        rec(0.5, phi)
    with pytest.raises(DomainError, match="angle"):
        rec(np.array([0.2, 0.5]), np.array([0.0, phi]))


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_nan_or_negative_tolerance_is_a_domain_error(tol):
    mset = conductivity_dtn(CONST_COND, 3)
    with pytest.raises(DomainError, match="tolerance"):
        validate(mset, tol)
    with pytest.raises(DomainError, match="tolerance"):
        reconstruct(mset, tol=tol)
    assert validate(mset, 0.0).passed


# ------------------------------------------------------------ the exact solve's integer view


def _fraction_solve(mset, N):
    """p and q by the moments, as Fractions, times the Fraction solver table, one operation at a time."""
    conductivity = mset.kind == CONDUCTIVITY
    extract = extract_conductivity_moments if conductivity else extract_schroedinger_moments
    top = N if conductivity else N + 1

    def solve(k, parity):
        d = [Fraction(v) for v in extract(mset, k, parity).values]
        rows = inverse_matrix(ExponentSequence.shifted(k, len(d)), len(d)).rows
        return [sum((r * v for r, v in zip(row, d)), Fraction(0)) for row in rows]

    return {k: solve(k, "cos") for k in range(top)}, {k: solve(k, "sin") for k in range(1, top)}


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn), (POTENTIAL, schroedinger_dtn)])
@pytest.mark.parametrize("N", [4, 8, 16, 24])
def test_exact_reconstruction_reads_its_integer_view(kind, forward, N):
    source = _span_field(kind, N, seed=100 + N)
    mset = forward(source, N)
    rec = reconstruct(mset)
    doc = eio.reconstruction_to_dict(rec)
    field = rec.to_field()
    assert rec._pq == [None, None]  # neither reader built p or q
    assert (field.cos, field.sin) == (source.cos, source.sin)
    want_p, want_q = _fraction_solve(mset, N)
    assert (rec.p, rec.q) == (want_p, want_q)
    p, again = rec.p, rec.p  # two reads share their coefficients, not their tables or lists
    assert p == again and p[0][0] is again[0][0] and p is not again and p[0] is not again[0]
    p[0][0] += 1
    p[1].clear()
    assert rec.p == want_p
    assert all(type(c) is Fraction for table in (rec.p, rec.q) for cs in table.values() for c in cs)
    assert doc["p"] == {str(k): [float(c) for c in cs] for k, cs in want_p.items()}
    assert doc["q"] == {str(k): [float(c) for c in cs] for k, cs in want_q.items()}


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn), (POTENTIAL, schroedinger_dtn)])
def test_float_reconstruction_keeps_doubles_built_at_construction(kind, forward):
    mset = forward(_span_field(kind, 8, seed=7), 8)
    rec = reconstruct(mset, arithmetic="float")
    flags = [exact for view in rec._ints for _, _, exact in view.values()]
    assert flags and not any(flags)  # the view of the once-rounded doubles
    sym = mset.symmetrized()  # the float blocks the float path reads
    want_p, want_q = _fraction_solve(DtnMatrixSet(mset.kind, 8, sym.cc, sym.ss, sym.sc, sym.cs), 8)
    assert rec.p == {k: [float(c) for c in cs] for k, cs in want_p.items()}
    assert rec.q == {k: [float(c) for c in cs] for k, cs in want_q.items()}
    assert all(type(c) is float for table in (rec.p, rec.q) for cs in table.values() for c in cs)


# ------------------------------------------------------------ checks at construction


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float32(math.nan), "0.5", None, 1j])
def test_hand_built_reconstruction_rejects_a_bad_coefficient(bad):
    for p, q in (({1: [1.0, bad]}, {}), ({}, {2: [bad]})):
        with pytest.raises(DomainError, match="coefficient"):
            Reconstruction(CONDUCTIVITY, 3, p, q, {})


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float32(math.nan), "0.5", None, 1j])
def test_hand_built_reconstruction_rejects_a_bad_condition_sum(bad):
    with pytest.raises(DomainError, match="condition sum"):
        Reconstruction(CONDUCTIVITY, 3, {}, {}, {0: [2.0, bad]})
    with pytest.raises(DomainError, match="condition sum 'j' is not a real number"):
        Reconstruction(CONDUCTIVITY, 3, {}, {}, {0: "junk"})
    rec = Reconstruction(CONDUCTIVITY, 3, {}, {}, {0: [2, np.float64(18.0), Fraction(1, 2)]})
    assert rec.condition == {0: [2, 18.0, Fraction(1, 2)]}
    assert type(rec.condition[0][1]) is float


@pytest.mark.parametrize("kind, N", [(CONDUCTIVITY, "x"), (CONDUCTIVITY, 0), (CONDUCTIVITY, 3.0),
                                     (SCHROEDINGER, -5), (SCHROEDINGER, True), (SCHROEDINGER, None)])
def test_hand_built_reconstruction_checks_N_as_a_matrix_set_does(kind, N):
    with pytest.raises(DomainError, match="max frequency N must be"):
        Reconstruction(kind, N, {}, {}, {})
    with pytest.raises(DomainError, match="max frequency N must be"):
        DtnMatrixSet(kind, N, [], [], [], [])
    assert Reconstruction(SCHROEDINGER, np.int64(0), {}, {}, {}).N == 0


@pytest.mark.parametrize("key", [1.0, "1", None, True, -1])
def test_hand_built_reconstruction_rejects_a_bad_order_key(key):
    with pytest.raises(DomainError, match="angular order k"):
        Reconstruction(CONDUCTIVITY, 3, {key: [1.0]}, {}, {})
    with pytest.raises(DomainError, match="angular order k"):
        Reconstruction(CONDUCTIVITY, 3, {}, {key: [1.0]}, {})


@pytest.mark.parametrize("kind", ["nonsense", POTENTIAL, "half-disk", None, np.array([CONDUCTIVITY, SCHROEDINGER])])
def test_hand_built_reconstruction_takes_only_matrix_set_kinds(kind):
    with pytest.raises(KindMismatchError, match="unknown matrix kind"):
        Reconstruction(kind, 3, {0: [1.0]}, {}, {})


def test_hand_built_reconstruction_rejects_sine_order_0():
    with pytest.raises(DomainError, match="angular order k must be positive"):
        Reconstruction(CONDUCTIVITY, 3, {}, {0: [1.0]}, {})
    assert Reconstruction(CONDUCTIVITY, 3, {0: [1.0]}, {1: [1.0]}, {}).to_field().sin[1].terms == ((1, 1.0),)


@pytest.mark.parametrize("arithmetic", ["auto", "float"])
def test_to_field_equals_the_field_built_with_every_check(arithmetic):
    recs = [reconstruct(conductivity_dtn(_mixed_field(CONDUCTIVITY), 5), arithmetic=arithmetic),
            reconstruct(schroedinger_dtn(_mixed_field(POTENTIAL), 4), arithmetic=arithmetic),
            Reconstruction(SCHROEDINGER, 3, {2: [0.5, 0.25], 0: [Fraction(1, 3)], 1: []}, {3: [1.0], 1: [2.0]}, {})]
    for rec in recs:
        field = rec.to_field()
        checked = FourierRadialField(field.kind, {k: p.terms for k, p in field.cos.items()},
                                     {k: p.terms for k, p in field.sin.items()})
        assert field == checked and repr(field) == repr(checked)
        for got, want in ((field.cos, checked.cos), (field.sin, checked.sin)):
            assert list(got) == list(want) == sorted(got)
            assert [p.moment_exact(3) for p in got.values()] == [p.moment_exact(3) for p in want.values()]
        assert eio.dumps(eio.field_to_dict(field)) == eio.dumps(eio.field_to_dict(checked))


def test_hand_built_reconstruction_reads_each_entry_as_its_float():
    entries = [Fraction(1, 3), Fraction(-10**30, 7), 7, -2**80 - 1, np.int64(2**62 + 1), True, False,
               0.1, -1.5e300, 5e-324, np.float64(2.0 / 3.0)]
    p, q = {0: entries, 2: entries[::-1]}, {1: entries[3:]}
    rec = Reconstruction(CONDUCTIVITY, 3, p, q, {})
    assert (rec.p, rec.q) == tuple(rec._floats())  # the view's values
    got_p, got_q = rec._floats()
    for table, got in ((p, got_p), (q, got_q)):
        for k, cs in table.items():
            assert [float(c).hex() for c in cs] == [v.hex() for v in got[k]]
            assert all(type(v) is float for v in got[k])
    assert [exact for view in rec._ints for _, _, exact in view.values()] == [False, False, False]
    exact = Reconstruction(CONDUCTIVITY, 3, {0: entries[:5]}, {}, {})
    assert exact._ints[0][0][2] is True
    assert [v.hex() for v in exact._floats()[0][0]] == [float(c).hex() for c in entries[:5]]


def test_hand_built_reconstruction_tables_changed_after_construction_change_nothing():
    p, q = {np.int64(1): [0.5, 0.25]}, {2: [Fraction(1, 3), 2]}
    rec = Reconstruction(CONDUCTIVITY, 3, p, q, {})
    p[1][0] = 99.0
    q[2].append(7)
    assert rec.p == {1: [0.5, 0.25]} and rec.q == {2: [Fraction(1, 3), 2]}
    assert [type(k) for k in (*rec.p, *rec.q)] == [int, int]
    assert [type(c) for c in (*rec.p[1], *rec.q[2])] == [float, float, Fraction, Fraction]
    fresh = Reconstruction(CONDUCTIVITY, 3, rec.p, rec.q, {})  # built from what p and q show
    r, phi = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 2.0 * math.pi, 7)
    np.testing.assert_array_equal(rec(r, phi), fresh(r, phi))
    assert rec.evaluate(0.5, 1.0) == fresh.evaluate(0.5, 1.0)
    assert rec.to_field() == fresh.to_field()
    written = eio.reconstruction_to_dict(rec)
    assert written == eio.reconstruction_to_dict(fresh)
    assert (written["p"], written["q"]) == ({"1": [0.5, 0.25]}, {"2": [1.0 / 3.0, 2.0]})


def test_family_of_an_exact_solve_builds_neither_p_nor_q():
    rec = reconstruct(conductivity_dtn(_mixed_field(CONDUCTIVITY), 4))
    for k in (0, 1, 2):
        depth = max(len(view[k][0]) for view in rec._ints if k in view)
        assert rec.family(k).rows == build_weighted_family(k, depth - 1).rows
    with pytest.raises(KeyError):
        rec.family(9)
    assert rec._pq == [None, None]


def test_numpy_float_moments_solve_as_their_floats():
    for values in ((np.float32(0.5), np.float16(-0.25)), (np.float32(1.0 / 3.0),)):
        data = MomentData(k=1, parity="cos", values=values, origin_shift=1)
        assert all(type(v) is float for v in data.values)
        want = MomentData(k=1, parity="cos", values=tuple(map(float, values)), origin_shift=1)
        assert solve_moment_problem(data) == solve_moment_problem(want)
    for nan in (math.nan, np.float32(math.nan)):
        with pytest.raises(DomainError, match="moment value nan is non-finite"):
            MomentData(k=1, parity="cos", values=(0.5, nan), origin_shift=1)


@pytest.mark.parametrize("bad", ["0.5", None, 1j, [0.5]])
def test_moment_values_that_are_not_reals_are_a_domain_error(bad):
    with pytest.raises(DomainError, match="moment value .* is not a real number"):
        MomentData(k=1, parity="cos", values=(0.5, bad), origin_shift=1)


def test_admissibility_beyond_the_double_range_is_a_domain_error():
    mset = conductivity_dtn(_mixed_field(CONDUCTIVITY), 3)
    big = DtnMatrixSet(CONDUCTIVITY, 3, *(mset.block(n) * 1e160 for n in BLOCK_NAMES))
    rec = reconstruct(big)
    assert max(abs(c) for cs in rec.p.values() for c in cs) > 1e154
    with pytest.raises(DomainError, match="beyond the range of a double"):
        admissibility(rec)
    with pytest.raises(DomainError, match="beyond the range of a double"):  # each term finite, the sum not
        admissibility(Reconstruction(CONDUCTIVITY, 3, {1: [1e154] * 3, 2: [1.7e308]}, {}, {}))
