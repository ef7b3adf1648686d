"""The integer-scaled exact kernel against plain Fraction references.

Moments, forward entries, solver rows, the solve, the condition sums and the
monomial expansion are computed over common integer denominators; each test
below recomputes the same quantity entry by entry with Fraction arithmetic
and asks for equality, Fraction for Fraction or bit for bit.
"""

import copy
import json
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    POTENTIAL,
    DtnMatrixSet,
    FourierRadialField,
    MomentData,
    RadialProfile,
    Reconstruction,
    build_weighted_family,
    condition_sums,
    conductivity_dtn,
    extra_hankel_moments,
    inverse_matrix,
    reconstruct,
    schroedinger_dtn,
    solve_moment_problem,
    validate,
)
from eitdisk import io as eio
from eitdisk.errors import DomainError, InconsistentDataError
from eitdisk.forward import BLOCK_NAMES
from eitdisk.muntz import _INT_ROWS, ExponentSequence, _integer_rows, _muntz_rows

HALF = Fraction(1, 2)


def _naive_moment(profile, m):
    return sum((Fraction(v) / (m + p + 1) for p, v in profile.terms), Fraction(0))


def _random_field(kind, N, seed, values="fraction"):
    rng = random.Random(seed)

    def value():
        if values == "float":
            return rng.uniform(-1.0, 1.0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    def profile(k):
        powers = rng.sample(range(k, k + 2 * N + 3), rng.randint(1, 5))
        return RadialProfile(tuple((p, value()) for p in powers))

    top = N if kind == CONDUCTIVITY else N + 1
    cos = {k: profile(k) for k in range(top)}
    sin = {k: profile(k) for k in range(1, top)}
    return FourierRadialField(kind, cos, sin)


# solver rows, family and condition sums ----------------------------------------

@pytest.mark.parametrize("k", range(9))
def test_integer_rows_equal_the_fraction_solver_tables(k):
    seq = ExponentSequence.shifted(k, 40)
    unscaled, scaled = _muntz_rows(seq.lambdas), inverse_matrix(seq, 40).rows
    rows = _integer_rows(k, 40)
    assert len(rows) == 40
    for n, (row, scale, cond) in enumerate(rows):
        assert scale == 4 * n + 2 * k + 2 and all(type(e) is int for e in row)
        assert row == unscaled[n]
        assert tuple(scale * e for e in row) == scaled[n]
        assert cond == float(sum(abs(e) for e in scaled[n]))


@pytest.mark.parametrize("k", range(9))
@pytest.mark.parametrize("n", [1, 2, 7, 25, 40])
def test_family_and_condition_sums_equal_the_fraction_references(k, n):
    seq = ExponentSequence.shifted(k, n)
    unscaled = _muntz_rows(seq.lambdas)
    rows = build_weighted_family(k, n - 1).rows
    assert rows == unscaled
    assert all(type(c) is Fraction for row in rows for c in row)
    expected = [float(s) for s in inverse_matrix(seq, n).row_abs_sums()]
    assert condition_sums(k, n) == expected


def test_integer_rows_extend_by_prefix():
    k = 11
    short = _integer_rows(k, 3)
    long = _integer_rows(k, 12)
    assert long[:3] == short
    assert _integer_rows(k, 5) == long[:5]


def test_threads_extending_one_order_get_correct_prefixes():
    k = 17
    counts = [3, 30, 9, 21, 1, 14, 27, 6] * 3
    expected = {n: [float(s) for s in inverse_matrix(ExponentSequence.shifted(k, n), n).row_abs_sums()]
                for n in set(counts)}
    _INT_ROWS.pop(k, None)
    results, errors = [None] * len(counts), []

    def work(slot, n):
        try:
            results[slot] = (condition_sums(k, n), build_weighted_family(k, n - 1).rows)
        except BaseException as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i, n)) for i, n in enumerate(counts)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(t.is_alive() for t in threads)
    for (sums, rows), n in zip(results, counts):
        assert sums == expected[n]
        assert rows == _muntz_rows(ExponentSequence.shifted(k, n).lambdas)


def test_condition_sums_return_a_fresh_list():
    first = condition_sums(3, 6)
    kept = list(first)
    first[0] = -1.0
    first.append(7.0)
    assert condition_sums(3, 6) == kept
    assert condition_sums(3, 4) == kept[:4]


# moments ------------------------------------------------------------------------

@pytest.mark.parametrize("terms", [
    ((0, Fraction(1, 3)), (2, Fraction(-5, 7)), (9, Fraction(11, 4))),
    ((0, 1), (1, -3), (5, 7)),
    ((0, 0.1), (3, -2.5e-17), (8, 1e300), (40, -7.25)),
    ((1, Fraction(2, 3)), (2, 5), (6, 0.375), (7, -1e-300)),
    (),
])
@pytest.mark.parametrize("m", [0, 1, 2, 13, 57, 400])
def test_moment_exact_equals_the_fraction_sum(terms, m):
    profile = RadialProfile(terms)
    got = profile.moment_exact(m)
    assert type(got) is Fraction
    assert got == _naive_moment(profile, m)


def test_radial_profile_rejects_non_finite_values():
    for value in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(DomainError, match="non-finite"):
            RadialProfile(((0, 1.0), (2, value)))


# forward assembly ---------------------------------------------------------------

def _reference_k(field, N):
    a, b = field.cos_profile, field.sin_profile
    rng = range(1, N + 1)
    cc = [[i * j * (2 if i == j else 1) * _naive_moment(a(abs(i - j)), i + j - 1) for j in rng]
          for i in rng]
    cs = [[i * j * ((j > i) - (j < i)) * _naive_moment(b(abs(i - j)), i + j - 1) for j in rng]
          for i in rng]
    return {"cc": cc, "ss": cc, "sc": [list(col) for col in zip(*cs)], "cs": cs}


def _reference_j(field, N):
    a, b = field.cos_profile, field.sin_profile

    def ma(k, p):
        return _naive_moment(a(k), p)

    def mb(k, p):
        return _naive_moment(b(k), p)

    def sign(d):
        return (d > 0) - (d < 0)

    def cc(i, j):
        eta = 3 if i == j == 0 else (2 if i == j else 1)
        return HALF * ma(i + j, i + j + 1) + eta * HALF * ma(abs(i - j), i + j + 1)

    def ss(i, j):
        return -HALF * ma(i + j, i + j + 1) + (2 if i == j else 1) * HALF * ma(abs(i - j), i + j + 1)

    def sc(i, j):
        return HALF * mb(i + j, i + j + 1) + sign(i - j) * HALF * mb(abs(i - j), i + j + 1)

    def cs(i, j):
        return HALF * mb(i + j, i + j + 1) - sign(i - j) * HALF * mb(abs(i - j), i + j + 1)

    full, tail = range(N + 1), range(1, N + 1)
    return {"cc": [[cc(i, j) for j in full] for i in full],
            "ss": [[ss(i, j) for j in tail] for i in tail],
            "sc": [[sc(i, j) for j in full] for i in tail],
            "cs": [[cs(i, j) for j in tail] for i in full]}


def _branch_field(kind, N):
    """One profile form per order, cycled, so that every N from 4 on takes both assembly branches.

    A profile whose powers step as the moments it feeds do (by 2, or by 1 at
    the potential orders N + 1..2N, which feed one moment each) takes the
    Hankel row: the forms with a zero value, with one term and with one power
    of 10**400.  A gap, a step of 4, consecutive powers at the orders up to N,
    powers k, k + 3, k + 4 (the span of a lattice, off it), a 10**400 power
    after a small one and no terms at all take per-term sums.
    """
    forms = (lambda k: ((k, Fraction(1, 3)), (k + 2, 0), (k + 4, Fraction(-5, 7))),
             lambda k: ((k, 2), (k + 2, Fraction(1, 5)), (k + 6, -1)),
             lambda k: (),
             lambda k: ((k + 2, Fraction(3, 7)),),
             lambda k: ((k, 1), (k + 4, -0.5), (k + 8, Fraction(2, 9))),
             lambda k: ((k, 0.25), (k + 1, -3), (k + 2, Fraction(5, 6))),
             lambda k: ((k, Fraction(1, 6)), (k + 3, -2), (k + 4, 0.75)),
             lambda k: ((k, 1), (10**400, Fraction(-2, 3))),
             lambda k: ((10**400, Fraction(1, 3)),))

    def table(least, shift):
        return {k: RadialProfile(forms[(k + shift) % len(forms)](k)) for k in range(least, 2 * N + 2)}

    return FourierRadialField(kind, table(0, 0), table(1, 3))


@pytest.mark.parametrize("values", ["fraction", "float", "branches"])
@pytest.mark.parametrize("N", [1, 4, 9])
def test_assembled_entries_equal_the_fraction_formulas(N, values):
    for kind, forward, reference in ((CONDUCTIVITY, conductivity_dtn, _reference_k),
                                     (POTENTIAL, schroedinger_dtn, _reference_j)):
        if values == "branches":
            field = _branch_field(kind, N)
        else:
            field = _random_field(kind, N, seed=N, values=values)
        mset = forward(field, N)
        expected = reference(field, N)
        blocks, den = mset._ints
        for name in BLOCK_NAMES:
            assert [[Fraction(n, den) for n in row] for row in blocks[name]] == expected[name]
            assert mset.exact[name] == expected[name]
            assert all(type(q) is Fraction for row in mset.exact[name] for q in row)
            want = np.array([[float(q) * math.pi for q in row] for row in expected[name]])
            np.testing.assert_array_equal(mset.block(name).reshape(want.shape), want)


# solve and monomial expansion -----------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("m", [1, 3, 12])
def test_solve_equals_the_fraction_dot_product(k, m):
    rng = random.Random(100 * k + m)
    rows = inverse_matrix(ExponentSequence.shifted(k, m), m).rows
    exact = tuple(rng.choice([Fraction(rng.randint(-50, 50), rng.randint(1, 30)), rng.randint(-4, 4)])
                  for _ in range(m))
    floats = tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 3) for _ in range(m))
    got = solve_moment_problem(MomentData(k=k, parity="cos", values=exact, origin_shift=0))
    want = [sum((r * Fraction(v) for r, v in zip(row, exact)), Fraction(0)) for row in rows]
    assert got == want and all(type(c) is Fraction for c in got)
    got = solve_moment_problem(MomentData(k=k, parity="cos", values=floats, origin_shift=0))
    want = [float(sum((r * Fraction(v) for r, v in zip(row, floats)), Fraction(0))) for row in rows]
    assert got == want and all(type(c) is float for c in got)


@pytest.mark.parametrize("exact", [True, False])
def test_to_field_equals_the_family_expansion(exact):
    rng = random.Random(exact)

    def coeffs(depth):
        if exact:
            return [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(depth)]
        return [rng.uniform(-1.0, 1.0) for _ in range(depth)]

    p = {k: coeffs(9 - k) for k in range(9)}
    q = {k: coeffs(9 - k) for k in range(1, 9)}
    rec = Reconstruction(CONDUCTIVITY, 9, p, q, {})
    field = rec.to_field()
    for table, series in ((field.cos, p), (field.sin, q)):
        for k, c in series.items():
            rows = build_weighted_family(k, len(c) - 1).rows
            want = []
            for l in range(len(c)):
                v = sum((Fraction(c[n]) * rows[n][l] for n in range(l, len(c))), Fraction(0))
                v = v / 2 if table is field.cos and k == 0 else v
                want.append(v if exact else float(v))
            assert table[k].terms == tuple((2 * l + k, v) for l, v in enumerate(want))
            assert all(type(v) is (Fraction if exact else float) for _, v in table[k].terms)


# validate and symmetrized off the equal path ----------------------------------------

def _reference_max(values):
    values = list(values)
    if any(isinstance(v, float) and v != v for v in values):
        return math.nan
    return max(values, default=0)


def _reference_groups(rows, extras):
    n = len(rows)
    groups = []
    for l in range(2, 2 * n + 1):
        entries = [rows[i - 1][l - i - 1] for i in range(max(1, l - n), min(n, l - 1) + 1)]
        if l in extras:
            entries.append(extras[l])
        groups.append(entries)
    return float(_reference_max(_reference_max(g) - min(g) for g in groups if len(g) > 1))


def _reference_deviations(mset):
    """The deviations of ``validate`` by full subtraction of every pair."""
    if mset.exact is not None:
        cc, ss, sc, cs = (mset.exact[n] for n in ("cc", "ss", "sc", "cs"))
    else:
        cc, ss, sc, cs = (b.tolist() for b in (mset.cc, mset.ss, mset.sc, mset.cs))

    def asym(rows):
        n = len(rows)
        return _reference_max(abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(n))

    def antisym(rows):
        n = len(rows)
        return _reference_max(abs(rows[i][j] + rows[j][i]) for i in range(n) for j in range(n))

    def combine(a, b, op):
        return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    out = {"cc_symmetric": asym(cc), "ss_symmetric": asym(ss),
           "cs_matches_sc_transpose": _reference_max(
               abs(cs[i][j] - sc[j][i]) for i in range(len(cs)) for j in range(len(cs[i])))}
    if mset.kind == CONDUCTIVITY:
        out["cc_matches_ss"] = _reference_max(
            abs(x - y) for ra, rb in zip(cc, ss) for x, y in zip(ra, rb))
        out["cs_antisymmetric"] = antisym(cs)
    else:
        N = mset.N
        sc_ov, cs_ov = [row[1:] for row in sc], cs[1:]
        out["sc_minus_cs_antisymmetric"] = antisym(combine(sc_ov, cs_ov, lambda a, b: a - b))
        ssmcc = combine(ss, [row[1:] for row in cc[1:]], lambda a, b: a - b)
        out["ss_minus_cc_hankel"] = _reference_groups(ssmcc, {l: -cc[0][l] for l in range(2, N + 1)})
        scpcs = combine(sc_ov, cs_ov, lambda a, b: a + b)
        out["sc_plus_cs_hankel"] = _reference_groups(scpcs, {l: sc[l - 1][0] for l in range(2, N + 1)})
    unit = 1.0 if mset.exact is None else math.pi  # exact entries are in units of pi
    return {name: float(dev) * unit for name, dev in out.items()}


def _reference_symmetrized(mset):
    e = mset.exact
    rows, cols = len(e["cs"]), len(e["cs"][0])

    def sym(t, s):
        return [[(t[i][j] + s * t[j][i]) * HALF for j in range(len(t))] for i in range(len(t))]

    ecs = [[(e["cs"][i][j] + e["sc"][j][i]) * HALF for j in range(cols)] for i in range(rows)]
    if mset.kind == CONDUCTIVITY:
        ecs = sym(ecs, -1)
    return {"cc": sym(e["cc"], 1), "ss": sym(e["ss"], 1), "cs": ecs,
            "sc": [[ecs[j][i] for j in range(rows)] for i in range(cols)]}


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_matches_reference(mset):
    report = validate(mset, tol=0.0)
    expected = _reference_deviations(mset)
    assert [c.name for c in report.checks] == list(expected)
    for check in report.checks:
        assert _same(check.deviation, expected[check.name]), check.name
        assert check.passed == (check.deviation <= 0.0)


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_an_exact_set_and_its_float_document_deviate_alike(kind, forward):
    # exact entries are in units of pi, float entries carry pi: both deviations are absolute
    mset = forward(_random_field(kind, 5, seed=3), 5)
    exact = {n: [list(row) for row in mset.exact[n]] for n in BLOCK_NAMES}
    exact["cc"][0][1] += Fraction(1, 10**6)
    bumped = DtnMatrixSet(mset.kind, mset.N, exact=exact)
    document = eio.dtn_from_dict(json.loads(eio.dumps(eio.dtn_to_dict(bumped))))
    assert document.exact is None
    want = {c.name: c.deviation for c in validate(bumped).checks}
    got = {c.name: c.deviation for c in validate(document).checks}
    assert want["cc_symmetric"] == pytest.approx(1e-6 * math.pi, rel=1e-12)
    # the document's deviations are differences of rounded entries: a few ulps of the largest
    largest = max(float(np.max(np.abs(document.block(n)))) for n in BLOCK_NAMES)
    assert got == pytest.approx(want, rel=0.0, abs=4 * np.finfo(float).eps * largest)


def _bumped_positions(mset):
    for name in BLOCK_NAMES:
        rows, cols = len(mset.exact[name]), len(mset.exact[name][0])
        for i, j in {(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1), (rows // 2, cols // 3)}:
            yield name, i, j


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_validate_and_symmetrized_on_exact_sets_with_a_bumped_entry(kind, forward):
    mset = forward(_random_field(kind, 5, seed=3), 5)
    _assert_matches_reference(mset)
    for name, i, j in _bumped_positions(mset):
        exact = {n: [list(row) for row in mset.exact[n]] for n in BLOCK_NAMES}
        exact[name][i][j] += Fraction(1, 7)
        bumped = DtnMatrixSet(mset.kind, mset.N, exact=exact)
        _assert_matches_reference(bumped)
        sym = bumped.symmetrized()
        for block, table in _reference_symmetrized(bumped).items():
            assert sym.exact[block] == table
            assert all(type(q) is Fraction for row in sym.exact[block] for q in row)


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_and_symmetrized_on_float_sets_with_a_non_finite_entry(kind, forward, bad):
    mset = forward(_random_field(kind, 4, seed=8, values="float"), 4)
    for name in BLOCK_NAMES:
        for i, j in {(0, 0), (1, 2), (2, 1), (3, 3)}:
            blocks = {n: mset.block(n).copy() for n in BLOCK_NAMES}
            blocks[name][i, j] = bad
            if bad == math.inf and name in ("cc", "ss"):
                blocks[name][j, i] = bad  # an equal pair of infinities still deviates by NaN
            noisy = DtnMatrixSet(mset.kind, mset.N, **blocks)
            _assert_matches_reference(noisy)
            with np.errstate(invalid="ignore"):  # inf - inf in the float averages
                sym = noisy.symmetrized()
            cc, ss = blocks["cc"], blocks["ss"]
            with np.errstate(invalid="ignore"):
                cs = blocks["cs"] / 2.0 + blocks["sc"].T / 2.0
                if kind == CONDUCTIVITY:
                    cs = cs / 2.0 - cs.T / 2.0
                np.testing.assert_array_equal(sym.cc, cc / 2.0 + cc.T / 2.0)
                np.testing.assert_array_equal(sym.ss, ss / 2.0 + ss.T / 2.0)
            np.testing.assert_array_equal(sym.cs, cs)
            np.testing.assert_array_equal(sym.sc, cs.T)


def test_equal_infinities_keep_a_nan_deviation():
    mset = conductivity_dtn(_random_field(CONDUCTIVITY, 3, seed=1, values="float"), 3)
    blocks = {n: mset.block(n).copy() for n in BLOCK_NAMES}
    blocks["cc"][0, 1] = blocks["cc"][1, 0] = math.inf
    report = validate(DtnMatrixSet(CONDUCTIVITY, 3, **blocks))
    check = {c.name: c for c in report.checks}["cc_symmetric"]
    assert math.isnan(check.deviation) and not check.passed


# potential-kind validate on integer numerators, and the skipped projection ----------

def _with_exact(mset, exact):
    return DtnMatrixSet(mset.kind, mset.N, exact=exact)


def _bumped(mset, name, i, j, by):
    exact = {n: [list(row) for row in mset.exact[n]] for n in BLOCK_NAMES}
    exact[name][i][j] += by
    return _with_exact(mset, exact)


def _hankel_positions(N):
    """One entry on every anti-diagonal of ss - cc and of sc + cs, then both extras."""
    for l in range(2, 2 * N + 1):
        i = max(1, l - N)
        yield ("ss", i - 1, l - i - 1) if l % 2 else ("cc", i, l - i)
        yield ("sc", i - 1, l - i) if l % 2 else ("cs", i, l - i - 1)
    for l in range(2, N + 1):
        yield "cc", 0, l
        yield "sc", l - 1, 0


@pytest.mark.parametrize("N", [8, 12])
def test_potential_validate_equals_the_reference_on_every_hankel_group(N):
    mset = schroedinger_dtn(_random_field(POTENTIAL, N, seed=N + 40), N)
    _assert_matches_reference(mset)
    for name, i, j in _hankel_positions(N):
        _assert_matches_reference(_bumped(mset, name, i, j, Fraction(1, 7)))
    # a denominator coprime to every other one in the set
    _assert_matches_reference(_bumped(mset, "ss", N // 2, N // 3, Fraction(-3, 1000003)))


def test_potential_validate_on_exact_tables_of_plain_ints():
    mset = schroedinger_dtn(_random_field(POTENTIAL, 6, seed=12), 6)
    den = math.lcm(*(q.denominator for n in BLOCK_NAMES for row in mset.exact[n] for q in row))
    ints = {n: [[int(q * den) for q in row] for row in mset.exact[n]] for n in BLOCK_NAMES}
    scaled = _with_exact(mset, ints)
    _assert_matches_reference(scaled)
    assert validate(scaled).max_deviation == 0
    for name, i, j in [("cc", 0, 4), ("sc", 2, 0), ("ss", 1, 3), ("cs", 3, 2)]:
        _assert_matches_reference(_bumped(scaled, name, i, j, 1))
        _assert_matches_reference(_bumped(scaled, name, i, j, Fraction(2, 3)))  # ints and a Fraction


@pytest.mark.parametrize("bad", [0.5, "1", True, None])
def test_exact_tables_of_non_rationals_are_rejected_at_construction(bad):
    mset = conductivity_dtn(_random_field(CONDUCTIVITY, 3, seed=5), 3)
    exact = {n: [list(row) for row in mset.exact[n]] for n in BLOCK_NAMES}
    exact["cs"][1][2] = bad
    with pytest.raises(DomainError, match="exact block cs has an entry that is not rational"):
        _with_exact(mset, exact)


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_exact_tables_of_numpy_integers_invert_as_plain_ints(kind, forward):
    # numerators near 2**60: products with the solver rows wrap around in int64
    mset = forward(_random_field(kind, 8, seed=12), 8)
    den = math.lcm(*(q.denominator for n in BLOCK_NAMES for row in mset.exact[n] for q in row))
    ints = {n: [[int(q * den) for q in row] for row in mset.exact[n]] for n in BLOCK_NAMES}
    numpy_ints = {n: [[np.int64(v) for v in row] for row in ints[n]] for n in BLOCK_NAMES}
    want, got = (reconstruct(_with_exact(mset, tables)) for tables in (ints, numpy_ints))
    assert (got.p, got.q) == (want.p, want.q)
    assert _with_exact(mset, numpy_ints).exact == {n: [[Fraction(v) for v in row] for row in ints[n]]
                                                   for n in BLOCK_NAMES}


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
@pytest.mark.parametrize("integers", [False, True])
def test_exact_tables_changed_after_construction_change_nothing(kind, forward, integers):
    mset = forward(_random_field(kind, 4, seed=14), 4)
    den = math.lcm(*(q.denominator for n in BLOCK_NAMES for row in mset.exact[n] for q in row)) if integers else 1
    want = {n: [[q * den for q in row] for row in mset.exact[n]] for n in BLOCK_NAMES}
    tables = {n: [[np.int64(q) if integers else q for q in row] for row in want[n]] for n in BLOCK_NAMES}
    held = _with_exact(mset, tables)
    tables["cc"][0][1] = Fraction(5)
    tables["cs"].clear()
    assert held.exact == want
    assert all(type(q) is Fraction and type(q.numerator) is type(q.denominator) is int
               for n in BLOCK_NAMES for row in held.exact[n] for q in row)
    report = validate(held)  # read off the view, as exact is
    assert report.passed and report.checks == validate(_with_exact(mset, held.exact)).checks
    assert not validate(_with_exact(mset, {**want, "cc": tables["cc"]})).passed


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_reconstruct_equals_the_symmetrized_reconstruction(kind, forward):
    mset = forward(_random_field(kind, 6, seed=21), 6)
    cases = [mset] + [_bumped(mset, name, i, j, Fraction(1, 10**6))
                      for name, i, j in _bumped_positions(mset)]
    for data in cases:
        for arithmetic in ("auto", "rational", "float"):
            got = reconstruct(data, tol=1e-3, arithmetic=arithmetic)
            want = reconstruct(data.symmetrized(), tol=1e-3, arithmetic=arithmetic)
            assert (got.p, got.q, got.condition) == (want.p, want.q, want.condition)
            kinds = {type(c) for series in (got.p, got.q) for cs in series.values() for c in cs}
            assert kinds == {float if arithmetic == "float" else Fraction}


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_float_blocks_beside_exact_tables_are_a_domain_error(kind, forward):
    # an exact set has one store: its float blocks are the view's rounding, so none are taken beside it
    mset = forward(_random_field(kind, 5, seed=33), 5)
    for blocks in ({n: mset.block(n) for n in BLOCK_NAMES}, {"ss": mset.ss}, {"cs": np.zeros((1, 1))}):
        with pytest.raises(DomainError, match="pass exact= alone"):
            DtnMatrixSet(mset.kind, 5, **blocks, exact=mset.exact)
    want = reconstruct(mset.symmetrized(), arithmetic="float")
    got = reconstruct(mset, arithmetic="float")
    assert repr((got.p, got.q)) == repr((want.p, want.q))  # double for double
    assert all(type(c) is float for table in (got.p, got.q) for cs in table.values() for c in cs)
    noisy = DtnMatrixSet(mset.kind, 5, *(mset.block(n) + 1e-3 * (1 + np.arange(mset.block(n).size))
                                         .reshape(mset.block(n).shape) for n in BLOCK_NAMES))
    assert reconstruct(noisy, tol=1.0, arithmetic="float").p != got.p  # a float set reads its blocks


@pytest.mark.parametrize("huge", [Fraction(10**400, 3), 10**400, Fraction(-(10**309))])
def test_float_view_of_an_entry_beyond_the_double_range_is_a_domain_error(huge):
    mset = conductivity_dtn(_random_field(CONDUCTIVITY, 3, seed=2), 3)
    exact = {n: [list(row) for row in mset.exact[n]] for n in BLOCK_NAMES}
    exact["cc"][1][1] = huge
    with pytest.raises(DomainError, match="block cc has an entry beyond the range of a double"):
        _with_exact(mset, exact).symmetrized()


# the integer view of an exact set ----------------------------------------------------

def _mixed_field(kind, N, seed):
    """Profiles of Fractions, floats, ints, zeros (0 and 0.0) or no terms, one form per order.

    Orders run to 2N + 1: the potential blocks read orders up to 2N, and
    orders beyond what a kind reads must not change its blocks.
    """
    rng = random.Random(seed)
    forms = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)), lambda: rng.uniform(-1.0, 1.0),
             lambda: rng.randint(-5, 5), lambda: rng.choice((0, 0.0)), None)

    def profile(k):
        form = rng.choice(forms)
        if form is None:
            return RadialProfile(())
        powers = rng.sample(range(k, k + 2 * N + 3), rng.randint(1, min(5, 2 * N + 3)))
        return RadialProfile(tuple((p, form()) for p in powers))

    return FourierRadialField(kind, {k: profile(k) for k in range(2 * N + 2)},
                              {k: profile(k) for k in range(1, 2 * N + 2)})


_KINDS = ((CONDUCTIVITY, conductivity_dtn, _reference_k), (POTENTIAL, schroedinger_dtn, _reference_j))


@pytest.mark.parametrize("N", [*range(9), 16, 24])
def test_integer_view_equals_the_fraction_tables(N):
    for kind, forward, reference in _KINDS[N == 0:]:
        field = _mixed_field(kind, N, seed=200 + N)
        mset = forward(field, N)
        blocks, den = mset._ints
        assert mset._exact is None
        expected = reference(field, N)
        for name in BLOCK_NAMES:
            assert all(type(n) is int for row in blocks[name] for n in row)
            assert [[Fraction(n, den) for n in row] for row in blocks[name]] == expected[name]
            want = np.array([[float(q) * math.pi for q in row] for row in expected[name]])
            np.testing.assert_array_equal(mset.block(name).reshape(want.shape), want)
        exact, again = mset.exact, mset.exact
        assert exact == again == expected
        assert all(type(q) is Fraction for name in BLOCK_NAMES for row in exact[name] for q in row)
        # two reads share their Fractions, not their lists
        assert exact["cc"][0][0] is again["cc"][0][0]
        assert exact is not again and exact["cc"] is not again["cc"] and exact["cc"][0] is not again["cc"][0]
        exact["cc"][0][0] += 1
        exact["cs"].clear()
        assert mset.exact == expected


@pytest.mark.parametrize("kind,forward,reference", _KINDS)
def test_a_sparse_high_power_profile_assembles_over_the_divisors_that_occur(kind, forward, reference):
    profile = RadialProfile(((5000, Fraction(3, 7)),))
    field = FourierRadialField(kind, {1: profile}, {2: profile})
    mset = forward(field, 4)
    blocks, den = mset._ints
    assert den.bit_length() < 100  # lcm(1..5000) alone has about 7200 bits
    expected = reference(field, 4)
    assert {name: [[Fraction(n, den) for n in row] for row in blocks[name]] for name in BLOCK_NAMES} == expected
    assert all(profile.moment_exact(m) == _naive_moment(profile, m) for m in range(2, 10))
    if kind == CONDUCTIVITY:  # K[cc]_{1,2} = 1 * 2 * integral r^2 a_1 dr
        assert Fraction(blocks["cc"][0][1], den) == 2 * profile.moment_exact(2)
    else:  # J[cc]_{0,1} = integral r^2 a_1 dr
        assert Fraction(blocks["cc"][0][1], den) == profile.moment_exact(2)


@pytest.mark.parametrize("kind,forward,reference", _KINDS)
def test_the_exact_path_never_builds_the_fraction_tables(kind, forward, reference):
    mset = forward(_random_field(kind, 6, seed=60), 6)
    assert validate(mset).passed
    for arithmetic in ("auto", "rational", "float"):
        reconstruct(mset, arithmetic=arithmetic).to_field()
    sym = mset.symmetrized()
    assert validate(sym).passed
    if kind == POTENTIAL:
        extra_hankel_moments(mset)
    assert mset._exact is None and sym._exact is None
    assert mset.exact == reference(_random_field(kind, 6, seed=60), 6)


def _reference_reconstruction(exact, kind, N):
    """p and q by the module-docstring extraction on Fraction tables and the Fraction solver rows."""
    cc, ss, sc, cs = ([[Fraction(v) for v in row] for row in exact[n]] for n in BLOCK_NAMES)
    top = N if kind == CONDUCTIVITY else N + 1

    def moments(k, parity):
        tail = range(1, N - k + 1)
        if kind == CONDUCTIVITY:
            block = cc if parity == "cos" else cs
            return [block[i - 1][i + k - 1] / (i * (i + k)) for i in tail]
        if parity == "cos":
            return [cc[k][0]] + [cc[i][i + k] + ss[i - 1][i + k - 1] for i in tail]
        return [(cs[0][k - 1] + sc[k - 1][0]) / 2] + [cs[i][i + k - 1] - sc[i - 1][i + k] for i in tail]

    def solve(k, parity):
        d = moments(k, parity)
        rows = inverse_matrix(ExponentSequence.shifted(k, len(d)), len(d)).rows
        return [sum((r * v for r, v in zip(row, d)), Fraction(0)) for row in rows]

    return {k: solve(k, "cos") for k in range(top)}, {k: solve(k, "sin") for k in range(1, top)}


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_hand_built_sets_give_the_fraction_reference_coefficients(kind, forward):
    mset = forward(_random_field(kind, 5, seed=50), 5)
    den = math.lcm(*(q.denominator for n in BLOCK_NAMES for row in mset.exact[n] for q in row))
    ints = _with_exact(mset, {n: [[int(q * den) for q in row] for row in mset.exact[n]] for n in BLOCK_NAMES})
    cases = [(mset, 1e-9), (_bumped(mset, "cs", 2, 1, Fraction(1, 10**6)), 1e-3),
             (_bumped(mset, "cc", 1, 3, Fraction(-3, 1000003)), 1e-3), (ints, 1e-9),
             (_bumped(ints, "sc", 3, 2, 1), math.pi), (_bumped(ints, "ss", 0, 4, Fraction(2, 3)), math.pi)]
    for data, tol in cases:
        want_p, want_q = _reference_reconstruction(_reference_symmetrized(data), kind, 5)
        for arithmetic in ("auto", "rational"):
            rec = reconstruct(data, tol=tol, arithmetic=arithmetic)
            assert (rec.p, rec.q) == (want_p, want_q)
            assert all(type(c) is Fraction for series in (rec.p, rec.q) for cs in series.values() for c in cs)
        _assert_matches_reference(data)


def test_a_consistent_set_beyond_the_double_range_solves_exactly_but_has_no_float_view():
    mset = schroedinger_dtn(_random_field(POTENTIAL, 4, seed=51), 4)
    huge = _with_exact(mset, {n: [[q * 10**400 for q in row] for row in mset.exact[n]] for n in BLOCK_NAMES})
    assert validate(huge, tol=0.0).max_deviation == 0
    rec, base = reconstruct(huge), reconstruct(mset)
    assert rec.p == {k: [c * 10**400 for c in cs] for k, cs in base.p.items()}
    assert rec.q == {k: [c * 10**400 for c in cs] for k, cs in base.q.items()}
    for call in (huge.symmetrized, lambda: reconstruct(huge, arithmetic="float"), lambda: huge.cc,
                 lambda: eio.dtn_to_dict(huge)):
        with pytest.raises(DomainError, match="block cc has an entry beyond the range of a double"):
            call()


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_an_exact_set_has_read_only_blocks_and_writes_a_document_that_validates(kind, forward):
    mset = forward(_random_field(kind, 4, seed=77), 4)
    copies = copy.deepcopy(mset), pickle.loads(pickle.dumps(mset))  # they rebuild the blocks assembly built
    for data in (mset, mset.symmetrized(), DtnMatrixSet(mset.kind, 4, exact=mset.exact), *copies):
        for name in BLOCK_NAMES:
            with pytest.raises(ValueError):
                data.block(name)[0, 0] = 99.0
            with pytest.raises(ValueError):
                getattr(data, name)[-1] += 1.0
        document = eio.dtn_from_dict(json.loads(eio.dumps(eio.dtn_to_dict(data))))
        assert validate(document).passed and document.exact is None
        assert all(np.array_equal(document.block(n), mset.block(n)) for n in BLOCK_NAMES)
        if kind == CONDUCTIVITY:  # ss is cc's table, so it reads cc's array
            assert data.ss is data.cc
        assert np.shares_memory(data.sc, data.cs)  # sc is cs transposed: no table is divided twice


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
@pytest.mark.parametrize("N", [1, 4, 8])
def test_a_set_from_exact_tables_alone_is_the_assembled_set(kind, forward, N):
    mset = forward(_random_field(kind, N, seed=90 + N), N)
    alone = DtnMatrixSet(mset.kind, N, exact=mset.exact)
    assert alone._floats == {}  # its blocks are built on first read
    report = validate(alone, tol=0.0)
    assert report.passed and report.max_deviation == 0
    rec, want = reconstruct(alone), reconstruct(mset)
    assert (rec.p, rec.q) == (want.p, want.q)
    assert all(type(c) is Fraction for table in (rec.p, rec.q) for cs in table.values() for c in cs)
    assert eio.dumps(eio.dtn_to_dict(alone)) == eio.dumps(eio.dtn_to_dict(mset))


def test_threads_reading_the_blocks_of_a_new_exact_set_all_get_the_assembled_arrays():
    # each block is built on first read without a lock: racing threads may build it twice, equal and read-only
    mset = conductivity_dtn(_random_field(CONDUCTIVITY, 8, seed=31), 8)
    want = {n: mset.block(n).copy() for n in BLOCK_NAMES}
    results, errors = [], []

    def work(data, order):
        try:
            results.append({n: data.block(n) for n in order})
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            data = DtnMatrixSet(CONDUCTIVITY, 8, exact=mset.exact)
            threads = [threading.Thread(target=work, args=(data, BLOCK_NAMES[i % 4:] + BLOCK_NAMES[:i % 4]))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors and len(results) == 120
    for blocks in results:
        assert all(np.array_equal(blocks[n], want[n]) and not blocks[n].flags.writeable for n in BLOCK_NAMES)


def test_extra_hankel_moments_equal_the_fraction_means():
    N = 7
    mset = schroedinger_dtn(_mixed_field(POTENTIAL, N, seed=0), N)  # orders beyond N: nonzero extras
    for data in [mset] + [_bumped(mset, name, i, j, Fraction(1, 7))
                          for name, i, j in (("cc", N, N), ("ss", N - 1, N - 2), ("sc", N - 1, N), ("cs", 5, 6))]:
        cc, ss, sc, cs = (data.exact[n] for n in BLOCK_NAMES)
        got = extra_hankel_moments(data)
        for l in range(N + 1, 2 * N + 1):
            diagonal = range(max(1, l - N), min(N, l - 1) + 1)
            a = [cc[i][l - i] - ss[i - 1][l - i - 1] for i in diagonal]
            b = [sc[i - 1][l - i] + cs[i][l - i - 1] for i in diagonal]
            assert got["cos"][l] == float(sum(a, Fraction(0)) / len(a))
            assert got["sin"][l] == float(sum(b, Fraction(0)) / len(b))


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
@pytest.mark.parametrize("huge", [Fraction(10**400, 3), Fraction(-(10**309))], ids=["1e400/3", "-1e309"])
def test_a_deviation_beyond_the_double_range_fails_its_check_as_inf(kind, forward, huge):
    mset = forward(_random_field(kind, 4, seed=52), 4)
    data = _bumped(mset, "cc", 1, 2, huge - mset.exact["cc"][1][2])
    report = validate(data)
    assert report.checks[0].name == "cc_symmetric"
    assert report.checks[0].deviation == math.inf and not report.checks[0].passed
    with pytest.raises(InconsistentDataError) as caught:
        reconstruct(data)
    assert caught.value.report.max_deviation == math.inf


@pytest.mark.parametrize("scale", [10**400, Fraction(10**400, 3), -(10**312)],
                         ids=["1e400", "1e400/3", "-1e312"])
def test_extra_hankel_moments_beyond_the_double_range_are_a_domain_error(scale):
    N = 5
    mset = schroedinger_dtn(_mixed_field(POTENTIAL, N, seed=0), N)  # orders beyond N: nonzero extras
    huge = _with_exact(mset, {n: [[q * scale for q in row] for row in mset.exact[n]] for n in BLOCK_NAMES})
    assert validate(huge, tol=0.0).max_deviation == 0
    with pytest.raises(DomainError, match="an extra moment is beyond the range of a double"):
        extra_hankel_moments(huge)


# profiles built from integers, and the memo of exact validation ----------------------

def _span_field(kind, N, seed):
    """Random small rationals on every LM span power of truncation N: an exact round trip."""
    rng = random.Random(seed)
    top = N if kind == CONDUCTIVITY else N + 1

    def profile(k):
        return RadialProfile(tuple((2 * l + k, Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
                                   for l in range(top - k)))

    return FourierRadialField(kind, {k: profile(k) for k in range(top)}, {k: profile(k) for k in range(1, top)})


def _profiles(field):
    return [*field.cos.values(), *field.sin.values()]


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_an_exact_round_trip_builds_its_fractions_only_when_its_terms_are_read(kind, forward):
    source = _span_field(kind, 8, seed=81)
    mset = forward(source, 8)
    back = reconstruct(mset).to_field()
    again = forward(back, 8)
    assert again._ints == mset._ints  # the same numerators over the same denominator
    document = eio.dumps(eio.field_to_dict(back))
    assert document == eio.dumps(eio.field_to_dict(source))  # n / D is each double float(Fraction) is
    assert not any("_floats" in vars(prof) for prof in _profiles(back))  # a writer keeps no doubles
    r = np.linspace(0.0, 1.0, 7)
    for prof, twin in zip(_profiles(back), _profiles(source)):
        assert prof.values_at(r).tolist() == twin.values_at(r).tolist() and prof(0.3) == twin(0.3)
    assert all("terms" not in vars(prof) for prof in _profiles(back))
    for prof, twin in zip(_profiles(back), _profiles(source)):
        assert prof.terms == twin.terms and all(type(v) is Fraction for _, v in prof.terms)
        assert prof._scaled == twin._scaled and prof._powers == twin._powers
        assert prof == twin and hash(prof) == hash(twin) and repr(prof) == repr(twin)
    assert back == source and repr(back) == repr(source)
    assert pickle.loads(pickle.dumps(back)) == source and copy.deepcopy(back) == source


def test_a_profile_from_integers_is_reduced_as_its_fractions_are():
    for powers, nums, den in (([1, 3], [4, -6], 8), ([0, 2], [0, 0], 6), ([5], [-9], 3), ([2, 4], [7, 1], 5)):
        prof = RadialProfile._from_integers(powers, nums, den)
        twin = RadialProfile(zip(powers, (Fraction(n, den) for n in nums)))
        assert prof._scaled == twin._scaled and "terms" not in vars(prof)
        assert prof == twin and hash(prof) == hash(twin) and repr(prof) == repr(twin)
        assert copy.copy(prof) == twin and pickle.loads(pickle.dumps(prof)).terms == twin.terms


def test_a_profile_from_integers_beyond_the_double_range_is_a_domain_error():
    prof = RadialProfile._from_integers([0, 2], [10**400, 1], 3)
    with pytest.raises(DomainError, match="radial profile value is beyond the range of a double"):
        eio.field_to_dict(FourierRadialField(CONDUCTIVITY, {0: prof}))
    assert prof.moment_exact(0) == Fraction(10**400, 3) + Fraction(1, 9)


def test_to_field_and_its_document_build_no_fraction(monkeypatch):
    rec = reconstruct(conductivity_dtn(_span_field(CONDUCTIVITY, 8, seed=8), 8))
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    field = rec.to_field()
    eio.dumps(eio.field_to_dict(field))
    assert made == []
    field.cos[0].terms  # the counter counts: reading the terms builds them
    assert len(made) == len(field.cos[0]._powers)


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_a_solved_reconstruction_equals_one_built_by_the_public_constructor(kind, forward):
    rec = reconstruct(forward(_span_field(kind, 6, seed=6), 6))
    twin = Reconstruction(rec.kind, 6, rec.p, rec.q, rec.condition)
    assert twin.p == rec.p and twin.q == rec.q and twin.condition == rec.condition
    assert rec.condition == {k: condition_sums(k, len(c)) for k, c in rec.p.items() if c}
    for row in ([math.nan], [math.inf], ["1"], [None]):
        with pytest.raises(DomainError, match="condition sum"):
            Reconstruction(rec.kind, 6, rec.p, rec.q, {0: row})


@pytest.mark.parametrize("kind,forward", [(CONDUCTIVITY, conductivity_dtn),
                                          (POTENTIAL, schroedinger_dtn)])
def test_an_exact_set_keeps_its_deviations_and_each_call_applies_its_tolerance(kind, forward):
    mset = forward(_random_field(kind, 5, seed=5), 5)
    bumped = _bumped(mset, "cc", 0, 1, Fraction(1, 10**6))
    loose = validate(bumped, tol=1e-3)
    strict = validate(bumped, tol=1e-9)
    assert [(c.name, c.deviation) for c in loose.checks] == [(c.name, c.deviation) for c in strict.checks]
    assert (loose.tol, strict.tol) == (1e-3, 1e-9)
    assert loose.passed and not strict.passed
    assert [c.passed for c in strict.checks] == [c.deviation <= 1e-9 for c in strict.checks]
    fresh = _bumped(mset, "cc", 0, 1, Fraction(1, 10**6))  # the same set, validated for the first time
    assert validate(fresh, tol=1e-9) == strict
    with pytest.raises(DomainError, match="tolerance"):
        validate(bumped, tol=math.nan)


def test_reconstruct_after_validate_scans_an_exact_set_once(monkeypatch):
    import eitdisk.inverse
    scans = []
    dev = eitdisk.inverse._dev
    monkeypatch.setattr(eitdisk.inverse, "_dev", lambda *args: scans.append(1) or dev(*args))
    mset = conductivity_dtn(_random_field(CONDUCTIVITY, 5, seed=9), 5)
    assert validate(mset).passed
    once = len(scans)
    assert once
    reconstruct(mset)
    validate(mset, tol=0.0)
    assert len(scans) == once
    document = eio.dtn_from_dict(json.loads(eio.dumps(eio.dtn_to_dict(mset))))
    validate(document)
    reconstruct(document)  # a float set is scanned on every call
    assert len(scans) == 3 * once


def test_a_float_set_changed_in_place_is_checked_again():
    mset = conductivity_dtn(_random_field(CONDUCTIVITY, 4, seed=4, values="float"), 4)
    document = eio.dtn_from_dict(json.loads(eio.dumps(eio.dtn_to_dict(mset))))
    assert validate(document).passed
    document.cc[0, 1] += 0.5
    report = validate(document)
    check = {c.name: c for c in report.checks}["cc_symmetric"]
    assert check.deviation == pytest.approx(0.5) and not report.passed
    with pytest.raises(InconsistentDataError):
        reconstruct(document)
