"""One rule for every count, order, frequency and truncation argument.

Each public entry that takes one raises DomainError for a float (integral
ones too), a bool, a string or None, and accepts numpy integers.  An
argument past what the data hold stays a RangeError (tests/test_inverse.py,
tests/test_partial.py).
"""

from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    POTENTIAL,
    BoundaryMode,
    DomainError,
    DtnMatrixSet,
    ExponentSequence,
    FourierRadialField,
    MomentData,
    RadialProfile,
    Reconstruction,
    build_muntz,
    build_weighted_family,
    condition_sums,
    conductivity_dtn,
    eval_weighted,
    extract_conductivity_moments,
    extract_schroedinger_moments,
    gram_matrix,
    half_disk_data,
    half_disk_invert,
    inverse_matrix,
    lm_norm_squared,
    moment,
    oracle_dtn,
    reconstruct,
    sample_grid,
    schroedinger_dtn,
    solve_moment_problem,
)
from eitdisk.quadrature import QuadratureSpec

COND = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),)), 1: RadialProfile(((1, 0.25),))}, {})
POT = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0),))}, {})
COND_SET = conductivity_dtn(COND, 3)
POT_SET = schroedinger_dtn(POT, 3)
HALF_DATA = half_disk_data(COND, 3)
SMALL_QUAD = QuadratureSpec(8, 16)
ZEROS = [np.zeros((2, 2))] * 4
SEQ = ExponentSequence.shifted(0, 3)
FAMILY = build_weighted_family(0, 3)


def _moment_data(k):
    return MomentData(k=k, parity="cos", values=(Fraction(1, 3), Fraction(1, 5)), origin_shift=1)


def _to_field(k):
    return Reconstruction(CONDUCTIVITY, 3, {k: [1.0, 0.5]}, {}, {}).to_field()


# entry(value) for a value in place of one integer argument; each accepts 2
ENTRIES = {
    "RadialProfile power": lambda v: RadialProfile(((v, 1.0),)),
    "FourierRadialField cos order": lambda v: FourierRadialField(CONDUCTIVITY, {v: ((0, 1.0),)}, {}),
    "FourierRadialField sin order": lambda v: FourierRadialField(CONDUCTIVITY, {}, {v: ((0, 1.0),)}),
    "moment k": lambda v: moment(COND, "cos", v, 1),
    "moment m": lambda v: moment(COND, "cos", 1, v),
    "sample_grid nr": lambda v: sample_grid(COND, v, 2),
    "sample_grid nphi": lambda v: sample_grid(COND, 2, v),
    "BoundaryMode": lambda v: BoundaryMode("sin", v),
    "DtnMatrixSet N": lambda v: DtnMatrixSet(CONDUCTIVITY, v, *ZEROS),
    "conductivity_dtn N": lambda v: conductivity_dtn(COND, v),
    "schroedinger_dtn N": lambda v: schroedinger_dtn(POT, v),
    "oracle_dtn N": lambda v: oracle_dtn(COND, v, SMALL_QUAD),
    "reconstruct N": lambda v: reconstruct(COND_SET, N=v),
    "reconstruct reg_cap": lambda v: reconstruct(COND_SET, reg_cap=v),
    "half_disk_invert N": lambda v: half_disk_invert(HALF_DATA, N=v),
    "half_disk_invert reg_cap": lambda v: half_disk_invert(HALF_DATA, reg_cap=v),
    "extract_conductivity_moments k": lambda v: extract_conductivity_moments(COND_SET, v),
    "extract_schroedinger_moments k": lambda v: extract_schroedinger_moments(POT_SET, v, "sin"),
    "ExponentSequence.shifted k": lambda v: ExponentSequence.shifted(v, 2),
    "ExponentSequence.shifted count": lambda v: ExponentSequence.shifted(0, v),
    "build_weighted_family k": lambda v: build_weighted_family(v, 2),
    "build_weighted_family nmax": lambda v: build_weighted_family(0, v),
    "lm_norm_squared k": lambda v: lm_norm_squared(v, 1),
    "lm_norm_squared n": lambda v: lm_norm_squared(1, v),
    "gram_matrix size": lambda v: gram_matrix(SEQ, v),
    "inverse_matrix size": lambda v: inverse_matrix(SEQ, v),
    "build_muntz n": lambda v: build_muntz(SEQ, v),
    "eval_weighted n": lambda v: eval_weighted(FAMILY, v, 0.5),
    "condition_sums k": lambda v: condition_sums(v, 2),
    "condition_sums count": lambda v: condition_sums(0, v),
    "MomentData k": lambda v: solve_moment_problem(_moment_data(v)),
    "Reconstruction.to_field order key": _to_field,
}


@pytest.mark.parametrize("name", ENTRIES)
def test_integer_arguments_reject_everything_but_integers(name):
    entry = ENTRIES[name]
    optional = name.startswith(("reconstruct", "half_disk_invert"))  # None: the default N, or no cap
    for value in (8.0, 2.5, True, "8", *(() if optional else (None,))):
        with pytest.raises(DomainError, match="integers only"):
            entry(value)
    entry(np.int64(2))  # numpy integers are integers


def test_fractional_sizes_are_not_truncated():
    # truncated, 2.5 radial levels would sample r = 1.2, outside the disk, and N = 4.5 would read as 4
    with pytest.raises(DomainError, match="grid sizes must be positive"):
        sample_grid(COND, 2.5, 2)
    blocks = [np.zeros((4, 4))] * 4
    with pytest.raises(DomainError, match="max frequency N"):
        DtnMatrixSet(CONDUCTIVITY, 4.5, *blocks)
    assert DtnMatrixSet(CONDUCTIVITY, np.int64(4), *blocks).N == 4


BELOW_LEAST = {
    "gram_matrix size 0": lambda: gram_matrix(SEQ, 0),
    "inverse_matrix size -1": lambda: inverse_matrix(SEQ, -1),
    "build_muntz n -1": lambda: build_muntz(SEQ, -1),
    "eval_weighted n -1": lambda: eval_weighted(FAMILY, -1, 0.5),
    "condition_sums k -1": lambda: condition_sums(-1, 2),
    "condition_sums count 0": lambda: condition_sums(0, 0),
    "MomentData k -1": lambda: _moment_data(-1),
    "Reconstruction.to_field order key -1": lambda: _to_field(-1),
}


@pytest.mark.parametrize("name", BELOW_LEAST)
def test_integers_below_their_least_value_are_domain_errors(name):
    with pytest.raises(DomainError, match="integers only"):
        BELOW_LEAST[name]()


def test_field_keys_of_mixed_types_are_checked_before_they_are_sorted():
    for parity in ("cos", "sin"):
        with pytest.raises(DomainError, match=f"{parity} orders must be .* not '1'"):
            FourierRadialField(CONDUCTIVITY, **{parity: {2: ((0, 1.0),), "1": ((0, 1.0),)}})
    field = FourierRadialField(CONDUCTIVITY, {np.int64(3): ((0, 1.0),), 1: ((0, 2.0),)}, {})
    assert list(field.cos) == [1, 3] and all(type(k) is int for k in field.cos)
