"""Analytic assembly of the boundary-data blocks against the energy-form oracle."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    POTENTIAL,
    BoundaryMode,
    DomainError,
    DtnMatrixSet,
    FourierRadialField,
    KindMismatchError,
    RadialProfile,
    ShapeError,
    block_shapes,
    conductivity_dtn,
    energy_oracle,
    index_origins,
    oracle_dtn,
    schroedinger_dtn,
)
from eitdisk.cli import _oracle_report
from eitdisk.forward import BLOCK_NAMES
from eitdisk.quadrature import QuadratureSpec
from test_acceptance import _random_polynomial_field

QUAD = QuadratureSpec(64, 512)

CONST_COND = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
CONST_POT = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0),))}, {})

_MODES = {"cc": ("cos", "cos"), "ss": ("sin", "sin"), "sc": ("sin", "cos"), "cs": ("cos", "sin")}


def _oracle_mismatches(field, mset, rel=1e-9):
    bad = []
    origins = index_origins(mset.kind)
    for name, (rp, cp) in _MODES.items():
        block = mset.block(name)
        r0, c0 = origins[name]
        for i in range(block.shape[0]):
            for j in range(block.shape[1]):
                o = energy_oracle(field, BoundaryMode(rp, r0 + i), BoundaryMode(cp, c0 + j), QUAD)
                if abs(block[i, j] - o) > rel * max(abs(block[i, j]), abs(o), 1e-4):
                    bad.append((name, r0 + i, c0 + j, block[i, j], o))
    return bad


def test_mode_validation():
    with pytest.raises(DomainError):
        BoundaryMode("cos", -1)
    with pytest.raises(DomainError):
        BoundaryMode("sin", 0)
    with pytest.raises(DomainError):
        BoundaryMode("tan", 1)


def test_block_shapes_and_origins():
    assert block_shapes(CONDUCTIVITY, 3) == {"cc": (3, 3), "ss": (3, 3), "sc": (3, 3), "cs": (3, 3)}
    assert block_shapes("schroedinger", 3) == {
        "cc": (4, 4),
        "ss": (3, 3),
        "sc": (3, 4),
        "cs": (4, 3),
    }
    assert index_origins(CONDUCTIVITY)["cc"] == (1, 1)
    assert index_origins("schroedinger")["sc"] == (1, 0)


def test_matrix_set_shape_checked():
    with pytest.raises(ShapeError):
        DtnMatrixSet(CONDUCTIVITY, 2, np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(KindMismatchError):
        DtnMatrixSet("other", 2, *(np.zeros((2, 2)) for _ in range(4)))


@pytest.mark.parametrize("name, table", [("sc", lambda t: t[:1]), ("cs", lambda t: [row[:1] for row in t])],
                         ids=["rows", "columns"])
def test_an_exact_table_of_the_wrong_shape_is_a_shape_error(name, table):
    mset = conductivity_dtn(CONST_COND, 2)
    exact = {**mset.exact, name: table(mset.exact[name])}
    with pytest.raises(ShapeError, match=f"^exact block {name} is not a table of 2 rows of 2 entries$"):
        DtnMatrixSet(CONDUCTIVITY, 2, exact=exact)
    with pytest.raises(ShapeError, match="^unknown block 'xx'$"):
        mset.block("xx")


@pytest.mark.parametrize("tables, name", [
    (lambda m: {n: t for n, t in m.exact.items() if n != "ss"}, "ss"),  # a block missing
    (lambda m: list(m.exact.values()), "cc"),  # not a mapping
    (lambda m: {**m.exact, "sc": [1, 2]}, "sc"),  # rows that are ints
    (lambda m: {**m.exact, "cs": 5}, "cs"),
    (lambda m: {**m.exact, "cc": {0: [1, 2], 1: [3, 4]}}, "cc"),  # a mapping is not a sequence
    (lambda m: {**m.exact, "ss": None}, "ss"),
], ids=["missing", "list", "int-rows", "int", "dict", "none"])
def test_a_malformed_exact_mapping_is_a_shape_error_naming_the_block(tables, name):
    mset = conductivity_dtn(CONST_COND, 2)
    with pytest.raises(ShapeError, match=f"^exact block {name} is not a table of 2 rows of 2 entries$"):
        DtnMatrixSet(CONDUCTIVITY, 2, exact=tables(mset))
    with pytest.raises(ShapeError, match="^unknown exact block 'xx'$"):
        DtnMatrixSet(CONDUCTIVITY, 2, exact={**mset.exact, "xx": mset.exact["cc"]})


@pytest.mark.parametrize("entry", [None, "x", 1j, 1 + 0j])
def test_block_entry_that_is_not_a_real_number_is_a_domain_error(entry):
    blocks = [[[1.0, 0.0], [0.0, 1.0]] for _ in range(4)]
    blocks[2][1][0] = entry
    with pytest.raises(DomainError, match=re.escape(f"block sc entry {entry!r} is not a real number")):
        DtnMatrixSet(CONDUCTIVITY, 2, *blocks)
    with pytest.raises(DomainError, match="block cc entry is beyond the range of a double"):
        DtnMatrixSet(CONDUCTIVITY, 1, [[10**400]], [[0.0]], [[0.0]], [[0.0]])


@pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0]], [[Fraction(1), 2], [3]], [[1.0, [2.0]], [3.0, 4.0]]])
def test_ragged_block_rows_are_a_shape_error(rows):
    # numpy cannot make an array of them; ShapeError, as the readers give, and still a ValueError
    with pytest.raises(ShapeError, match="block cs entry rows are not all of one length"):
        DtnMatrixSet(CONDUCTIVITY, 2, *[[[0.0, 0.0], [0.0, 0.0]]] * 3, rows)


def test_real_block_entries_read_as_floats():
    # bools as 0.0 and 1.0 and NaN as itself, as before; a float array is kept as it is
    cc = np.array([[0.5, 2.0], [-1.0, 3.0]])
    mset = DtnMatrixSet(CONDUCTIVITY, 2, cc, [[True, False], [math.nan, 2]], [[Fraction(1, 4), 10**30], [0, 0]],
                        np.arange(4).reshape(2, 2))
    assert mset.cc is cc
    assert mset.ss.tolist()[0] == [1.0, 0.0] and math.isnan(mset.ss[1, 0]) and mset.ss[1, 1] == 2.0
    assert mset.sc.tolist() == [[0.25, 1e30], [0.0, 0.0]]
    assert mset.cs.dtype == float and mset.cs.tolist() == [[0.0, 1.0], [2.0, 3.0]]


def test_kind_guards():
    with pytest.raises(KindMismatchError):
        conductivity_dtn(CONST_POT, 3)
    with pytest.raises(KindMismatchError):
        schroedinger_dtn(CONST_COND, 3)


def test_constant_conductivity_diagonal():
    mset = conductivity_dtn(CONST_COND, 8)
    for i in range(1, 9):
        assert mset.cc[i - 1, i - 1] == pytest.approx(i * math.pi, rel=1e-15)
    # off-diagonal terms need higher angular orders, absent here
    off = mset.cc - np.diag(np.diag(mset.cc))
    assert np.max(np.abs(off)) == 0.0
    assert np.max(np.abs(mset.cs)) == 0.0


def test_single_harmonic_conductivity_entries():
    # a_1(r) = r couples neighbouring frequencies only
    field = FourierRadialField(CONDUCTIVITY, {1: RadialProfile(((1, 1.0),))}, {})
    mset = conductivity_dtn(field, 4)
    exact = mset.exact
    assert exact["cc"][0][1] == Fraction(1, 2)  # 1*2*int r^2 * r dr = 1/2 (times pi)
    assert exact["cc"][1][0] == Fraction(1, 2)
    assert exact["cc"][0][0] == 0
    assert mset.cc[0, 1] == pytest.approx(math.pi / 2, rel=1e-15)


def test_sine_profile_antisymmetric_block():
    field = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {1: RadialProfile(((1, 1.0),))})
    mset = conductivity_dtn(field, 3)
    exact = mset.exact
    # cs_{12} = 1*2*sign(2-1)*int r^2 r dr = +1/2; transpose pair flips sign
    assert exact["cs"][0][1] == Fraction(1, 2)
    assert exact["cs"][1][0] == Fraction(-1, 2)
    assert exact["sc"][1][0] == Fraction(1, 2)
    for i in range(3):
        assert exact["cs"][i][i] == 0


def test_constant_potential_known_entries():
    mset = schroedinger_dtn(CONST_POT, 4)
    assert mset.cc[0, 0] == pytest.approx(math.pi, rel=1e-15)
    assert mset.ss[0, 0] == pytest.approx(math.pi / 4, rel=1e-15)
    assert mset.exact["cc"][0][0] == Fraction(1)
    assert mset.exact["ss"][0][0] == Fraction(1, 4)
    assert np.max(np.abs(mset.sc)) == 0.0


def test_potential_sine_entry():
    field = FourierRadialField(POTENTIAL, {}, {1: RadialProfile(((1, 1.0),))})
    mset = schroedinger_dtn(field, 3)
    # sc_{10} = pi * int r^2 * r dr = pi/4
    assert mset.sc[0, 0] == pytest.approx(math.pi / 4, rel=1e-15)
    assert mset.exact["sc"][0][0] == Fraction(1, 4)
    assert mset.exact["cs"][0][0] == Fraction(1, 4)


def test_oracle_agreement_conductivity():
    field = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1.0), (2, -0.5))), 2: RadialProfile(((2, 1.0), (4, 0.5)))},
        {1: RadialProfile(((1, 0.75),)), 3: RadialProfile(((3, -0.3),))},
    )
    assert _oracle_mismatches(field, conductivity_dtn(field, 5)) == []


def test_oracle_agreement_potential():
    field = FourierRadialField(
        POTENTIAL,
        {0: RadialProfile(((0, 0.5),)), 1: RadialProfile(((1, 1.0),))},
        {2: RadialProfile(((2, -1.0), (4, 0.25)))},
    )
    assert _oracle_mismatches(field, schroedinger_dtn(field, 5)) == []


def test_assembly_linear_in_field():
    f1 = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
    f2 = FourierRadialField(CONDUCTIVITY, {2: RadialProfile(((2, 1.0),))}, {1: RadialProfile(((1, 1.0),))})
    fsum = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 2.0),)), 2: RadialProfile(((2, -3.0),))},
        {1: RadialProfile(((1, -3.0),))},
    )
    m1, m2, ms = (conductivity_dtn(f, 4) for f in (f1, f2, fsum))
    for name in BLOCK_NAMES:
        np.testing.assert_allclose(
            ms.block(name), 2.0 * m1.block(name) - 3.0 * m2.block(name), atol=1e-13
        )


def _quarter_turned_fields(kind, seed):
    """A random rational field F with orders 0-4 and G(r, phi) = F(r, phi - pi/2).

    cos(k (phi - pi/2)) = c cos(k phi) + s sin(k phi) and sin(k (phi - pi/2)) =
    c sin(k phi) - s cos(k phi), with (c, s) = (cos(k pi/2), sin(k pi/2)), one
    of them 0: so each profile of G is one profile of F, times +-1.
    """
    rng = random.Random(seed)

    def terms(k):
        return [(k + 2 * j, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for j in range(2)]

    cos, sin = {k: terms(k) for k in range(5)}, {k: terms(k) for k in range(1, 5)}
    def times(sign, profile):
        return [(p, sign * v) for p, v in profile]

    gcos, gsin = {}, {}
    for k, a in cos.items():
        b = sin.get(k, [])
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
        gcos[k], gsin[k] = (times(c, a), times(c, b)) if s == 0 else (times(-s, b), times(s, a))
    del gsin[0]
    return FourierRadialField(kind, cos, sin), FourierRadialField(kind, gcos, gsin)


def _full_matrix(mset):
    """[[cc, cs], [sc, ss]] in Fractions, rows and columns the cosine modes, then the sine modes."""
    e = mset.exact
    return [cc + cs for cc, cs in zip(e["cc"], e["cs"])] + [sc + ss for sc, ss in zip(e["sc"], e["ss"])]


@pytest.mark.parametrize("N", [4, 8, 12])
@pytest.mark.parametrize("kind, forward", [(CONDUCTIVITY, conductivity_dtn), (POTENTIAL, schroedinger_dtn)],
                         ids=["conductivity", "schroedinger"])
def test_a_quarter_turn_of_the_field_turns_the_data_matrix_exactly(kind, forward, N):
    # u_f(R x) has boundary values f(phi + pi/2) = T f, so M_G = T M_F T^T;
    # T's entries are cos(n pi/2) and sin(n pi/2), 0 or +-1
    F, G = _quarter_turned_fields(kind, seed=N)
    mset = forward(F, N)
    first = index_origins(mset.kind)["cc"][0]
    modes = [("cos", n) for n in range(first, N + 1)] + [("sin", n) for n in range(1, N + 1)]
    where = {mode: i for i, mode in enumerate(modes)}
    T = [[0] * len(modes) for _ in modes]
    for i, (parity, n) in enumerate(modes):
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]
        T[i][where[parity, n]] = c
        if s:  # cos(n (phi + pi/2)) = c cos - s sin, sin(n (phi + pi/2)) = s cos + c sin
            T[i][where["sin" if parity == "cos" else "cos", n]] = -s if parity == "cos" else s
    M = _full_matrix(mset)
    TM = [[sum(t * m for t, m in zip(row, col) if t) for col in zip(*M)] for row in T]
    want = [[sum(a * t for a, t in zip(row, trow) if t) for trow in T] for row in TM]
    assert _full_matrix(forward(G, N)) == want


def test_symmetrized_idempotent_on_exact_sets():
    field = FourierRadialField(
        CONDUCTIVITY, {1: RadialProfile(((1, 1.0),))}, {2: RadialProfile(((2, 1.0),))}
    )
    mset = conductivity_dtn(field, 4)
    sym = mset.symmetrized()
    for name in BLOCK_NAMES:
        assert sym.exact[name] == mset.exact[name]


def test_symmetrized_averages_float_noise():
    base = conductivity_dtn(CONST_COND, 3)
    cc = base.cc.copy()
    cc[0, 1] += 4e-10
    noisy = DtnMatrixSet(CONDUCTIVITY, 3, cc, base.ss.copy(), base.sc.copy(), base.cs.copy())
    sym = noisy.symmetrized()
    assert sym.cc[0, 1] == pytest.approx(base.cc[0, 1] + 2e-10, abs=1e-16)
    assert sym.cc[0, 1] == sym.cc[1, 0]


# ------------------------------------------- batched oracle vs per-entry quadrature


def _reference_grid(quad):
    """Gauss-Legendre on [0, 1] x periodic trapezoid, built here from numpy alone."""
    x, w = np.polynomial.legendre.leggauss(quad.n_r)
    r, wr = (x + 1.0) / 2.0, w / 2.0
    phi = 2.0 * math.pi * np.arange(quad.n_phi) / quad.n_phi
    rg, pg = np.meshgrid(r, phi, indexing="ij")
    # quadrature weight times the polar Jacobian r
    return rg, pg, np.outer(wr * r, np.full(quad.n_phi, 2.0 * math.pi / quad.n_phi))


def _reference_values(field, rg, pg):
    out = np.zeros_like(rg)
    for parity, trig in (("cos", np.cos), ("sin", np.sin)):
        for k, prof in getattr(field, parity).items():
            for p, v in prof.terms:
                out += float(v) * rg**p * trig(k * pg)
    return out


def _reference_mode(parity, n, rg, pg):
    """u = r^n cos/sin(n phi) with its polar gradient (du/dr, (1/r) du/dphi)."""
    c, s = np.cos(n * pg), np.sin(n * pg)
    radial = n * rg ** (n - 1)
    if parity == "cos":
        return rg**n * c, radial * c, -radial * s
    return rg**n * s, radial * s, radial * c


def _reference_block(field, kind, N, name, quad):
    """One block, entry by entry: explicit mode products under the tensor rule."""
    rg, pg, weights = _reference_grid(quad)
    weighted = _reference_values(field, rg, pg) * weights
    rows, cols = block_shapes(kind, N)[name]
    (r0, c0), (rp, cp) = index_origins(kind)[name], _MODES[name]
    out = np.empty((rows, cols))
    for i in range(rows):
        u, ur, ut = _reference_mode(rp, r0 + i, rg, pg)
        for j in range(cols):
            v, vr, vt = _reference_mode(cp, c0 + j, rg, pg)
            product = ur * vr + ut * vt if kind == CONDUCTIVITY else u * v
            out[i, j] = np.sum(weighted * product)
    return out


def _random_field(kind, seed):
    rng = np.random.default_rng(seed)
    cos = {k: RadialProfile(((k, rng.uniform(-1, 1)), (k + 2, rng.uniform(-1, 1)))) for k in range(5)}
    sin = {k: RadialProfile(((k + 1, rng.uniform(-1, 1)),)) for k in range(1, 5)}
    return FourierRadialField(kind, cos, sin)


def _no_profiles(kind, seed):
    return FourierRadialField(kind)


def _orders_above_2n(kind, seed):
    """A random field with profiles at orders above 2N = 16, which no entry reads but the rule still sums."""
    field = _random_field(kind, seed)
    return FourierRadialField(kind, {**field.cos, 17: [[0, 0.75], [3, -0.5]], 40: [[2, 1.25]]},
                              {**field.sin, 23: [[1, -1.5]]})


@pytest.mark.parametrize("kind, make", [
    (CONDUCTIVITY, _random_field), ("schroedinger", _random_field),
    (CONDUCTIVITY, _no_profiles), ("schroedinger", _no_profiles),  # every block is zero
    (CONDUCTIVITY, _orders_above_2n), ("schroedinger", _orders_above_2n),
], ids=["conductivity", "schroedinger", "conductivity-no-profiles", "schroedinger-no-profiles",
        "conductivity-orders-above-2N", "schroedinger-orders-above-2N"])
def test_oracle_dtn_matches_per_entry_reference(kind, make):
    # N = 8; the potential blocks sc (8 x 9) and cs (9 x 8) are not square,
    # and its cc and cs blocks start with the mode-0 row cos(0 phi)
    field = make(CONDUCTIVITY if kind == CONDUCTIVITY else POTENTIAL, 5)
    mset = oracle_dtn(field, 8, QUAD)
    assert mset.kind == kind and mset.exact is None
    for name in BLOCK_NAMES:
        ref = _reference_block(field, kind, 8, name, QUAD)
        assert mset.block(name).shape == ref.shape
        assert np.max(np.abs(mset.block(name) - ref)) <= 1e-13 * np.max(np.abs(ref)), name


def test_oracle_dtn_agrees_with_assembly():
    for kind, forward in ((CONDUCTIVITY, conductivity_dtn), (POTENTIAL, schroedinger_dtn)):
        field = _random_field(kind, 6)
        numeric, analytic = oracle_dtn(field, 6, QUAD), forward(field, 6)
        for name in BLOCK_NAMES:
            np.testing.assert_allclose(numeric.block(name), analytic.block(name), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind, forward", [(CONDUCTIVITY, conductivity_dtn), (POTENTIAL, schroedinger_dtn)],
                         ids=[CONDUCTIVITY, POTENTIAL])
def test_oracle_dtn_stays_within_1e_10_of_the_exact_assembly(kind, forward):
    # criterion 3's fields, N = 8 on the default 64 x 512 rule: a margin of 100x
    # below criterion 3's 1e-8 over a largest reading of about 5e-11
    for seed in range(1, 61):
        field = _random_polynomial_field(kind, np.random.default_rng(seed))
        deviation = _oracle_report(field, forward(field, 8), QUAD)["max_scaled_deviation"]
        assert deviation <= 1e-10, (seed, deviation)


def test_energy_oracle_is_one_entry_of_the_block():
    field = _random_field(POTENTIAL, 7)
    mset = oracle_dtn(field, 4, QUAD)
    assert energy_oracle(field, BoundaryMode("cos", 0), BoundaryMode("sin", 3), QUAD) == pytest.approx(
        mset.cs[0, 2], rel=1e-13)
    assert energy_oracle(field, BoundaryMode("sin", 4), BoundaryMode("cos", 1), QUAD) == pytest.approx(
        mset.sc[3, 1], rel=1e-13)
    # the gradient of the mode-0 harmonic vanishes, so its conductivity row is zero
    cond = _random_field(CONDUCTIVITY, 7)
    assert energy_oracle(cond, BoundaryMode("cos", 0), BoundaryMode("cos", 2), QUAD) == 0.0


def test_assembly_rejects_overflowing_entry():
    huge = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.7e308),))}, {})
    with pytest.raises(DomainError, match="range of a double"):  # at the first float read
        conductivity_dtn(huge, 3).cc
    with pytest.raises(DomainError, match="range of a double"):
        schroedinger_dtn(FourierRadialField(POTENTIAL, huge.cos, {}), 3).cc
