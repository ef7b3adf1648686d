"""One rule for every count, order, frequency and truncation argument.

Each public entry that takes one raises DomainError for a float (integral
ones too), a bool, a string or None, and accepts numpy integers.  An
argument past what the data hold stays a RangeError (tests/test_inverse.py,
tests/test_partial.py).
"""

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
    RadialProfile,
    build_weighted_family,
    conductivity_dtn,
    extract_conductivity_moments,
    extract_schroedinger_moments,
    half_disk_data,
    half_disk_invert,
    lm_norm_squared,
    moment,
    oracle_dtn,
    reconstruct,
    sample_grid,
    schroedinger_dtn,
)
from eitdisk.quadrature import QuadratureSpec

COND = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),)), 1: RadialProfile(((1, 0.25),))}, {})
POT = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0),))}, {})
COND_SET = conductivity_dtn(COND, 3)
POT_SET = schroedinger_dtn(POT, 3)
HALF_DATA = half_disk_data(COND, 3)
SMALL_QUAD = QuadratureSpec(8, 16)
ZEROS = [np.zeros((2, 2))] * 4

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

