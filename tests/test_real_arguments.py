"""One rule for every scalar real argument and every polar point.

A real argument read as a double (a tolerance, a Müntz argument, a grid
span, a radius or an angle) raises DomainError for a string, None, an int
beyond the double range, a NaN it cannot take and an array where one number
is asked for; a point of ``psi`` and ``psi_inverse`` reads the same rule with
complex entries.  A radius and an angle array that do not broadcast are a
ShapeError.  ``eval_field`` is ``eval_field_grid`` at one point.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    ArcSpec,
    ConformalMap,
    DomainError,
    FourierRadialField,
    Reconstruction,
    ShapeError,
    arc_invert,
    build_muntz,
    build_weighted_family,
    conductivity_dtn,
    eval_field,
    eval_field_grid,
    eval_weighted,
    half_disk_data,
    half_disk_invert,
    psi,
    psi_inverse,
    reconstruct,
    sample_grid,
    validate,
)
from eitdisk.muntz import ExponentSequence
from eitdisk.partial import ArcReconstruction

FIELD = FourierRadialField(CONDUCTIVITY, {0: [[0, 1.0], [2, -0.5]], 3: [[3, 0.25]]}, {1: [[1, 0.75], [5, 1.5]]})
COND_SET = conductivity_dtn(FIELD, 3)
HALF_DATA = half_disk_data(FourierRadialField(CONDUCTIVITY, {0: [[0, 1.0]], 1: [[1, 0.5]]}), 3)
CMAP = ConformalMap(ArcSpec(0.5))
REC = Reconstruction(CONDUCTIVITY, 3, {0: [1.0, 0.5], 2: [0.25]}, {1: [-0.5]}, {})
ARC_REC = ArcReconstruction(REC, CMAP)
FAMILY = build_weighted_family(1, 3)
MUNTZ = build_muntz(ExponentSequence.shifted(0, 3), 2)

PAIR = np.array([0.5, 0.5])
POINT = "a point is one radius and one angle"

# name: (entry(value) with value in place of one real argument, the argument's
# name in messages, the message for NaN, a shape-(2,) array and its message)
ENTRIES = {
    "eval_field r": (lambda v: eval_field(FIELD, v, 1.0), "radius", "radius nan outside [0, 1]", PAIR, POINT),
    "eval_field phi": (lambda v: eval_field(FIELD, 0.5, v), "angle", "angle nan is not finite", PAIR, POINT),
    "Reconstruction.evaluate r": (lambda v: REC.evaluate(v, 1.0), "radius", "radius nan outside [0, 1]",
                                  PAIR, POINT),
    "Reconstruction.evaluate phi": (lambda v: REC.evaluate(0.5, v), "angle", "angle nan is not finite",
                                    PAIR, POINT),
    "ArcReconstruction.evaluate r": (lambda v: ARC_REC.evaluate(v, 1.0), "radius", "radius nan outside [0, 1]",
                                     PAIR, POINT),
    "ArcReconstruction.evaluate phi": (lambda v: ARC_REC.evaluate(0.5, v), "angle", "angle nan is not finite",
                                       PAIR, POINT),
    "eval_weighted x": (lambda v: eval_weighted(FAMILY, 2, v), "argument", "argument nan outside [0, 1]",
                        PAIR, "argument array([0.5, 0.5]) is not a real number"),
    "MuntzPolynomial x": (lambda v: MUNTZ(v), "argument", "argument nan outside [0, 1]",
                          PAIR, "argument array([0.5, 0.5]) is not a real number"),
    "validate tol": (lambda v: validate(COND_SET, v), "tolerance", "tolerance must be >= 0, got nan",
                     PAIR, "tolerance array([0.5, 0.5]) is not a real number"),
    "reconstruct tol": (lambda v: reconstruct(COND_SET, tol=v), "tolerance", "tolerance must be >= 0, got nan",
                        PAIR, "tolerance array([0.5, 0.5]) is not a real number"),
    "half_disk_invert tol": (lambda v: half_disk_invert(HALF_DATA, tol=v), "tolerance",
                             "tolerance must be >= 0, got nan",
                             PAIR, "tolerance array([0.5, 0.5]) is not a real number"),
    "arc_invert tol": (lambda v: arc_invert(HALF_DATA, CMAP, tol=v), "tolerance", "tolerance must be >= 0, got nan",
                       PAIR, "tolerance array([0.5, 0.5]) is not a real number"),
    "sample_grid span": (lambda v: sample_grid(FIELD, 2, 3, span=v), "span", "angle nan is not finite",
                         PAIR, "span array([0.5, 0.5]) is not a real number"),
    "psi z": (lambda v: psi(CMAP, v), "point", "point (nan+0j) is not finite",
              np.array([0.5j, "0.5"], dtype=object), "point '0.5' is not a complex number"),
    "psi_inverse z": (lambda v: psi_inverse(CMAP, v), "point", "point (nan+0j) is not finite",
                      np.array([0.5j, "0.5"], dtype=object), "point '0.5' is not a complex number"),
}


def _rows():
    for name, (entry, what, nan, array, array_message) in ENTRIES.items():
        number = "complex" if what == "point" else "real"
        for label, value, message in (
            ("string", "0.5", f"{what} '0.5' is not a {number} number"),
            ("none", None, f"{what} None is not a {number} number"),
            ("huge", 10**400, f"{what} is beyond the range of a double"),
            ("nan", math.nan, nan),
            ("array", array, array_message),
        ):
            yield pytest.param(entry, value, message, id=f"{name}-{label}")


@pytest.mark.parametrize("entry, value, message", _rows())
def test_a_value_that_is_not_one_real_number_in_range_is_a_domain_error(entry, value, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        entry(value)


@pytest.mark.parametrize("call", [
    lambda r, phi: REC(r, phi),
    lambda r, phi: ARC_REC(r, phi),
    lambda r, phi: eval_field_grid(FIELD, r, phi),
], ids=["Reconstruction", "ArcReconstruction", "eval_field_grid"])
def test_radii_and_angles_that_do_not_broadcast_are_a_shape_error(call):
    with pytest.raises(ShapeError, match=re.escape("radius shape (2, 3) and angle shape (3, 2) do not broadcast")):
        call(np.full((2, 3), 0.5), np.ones((3, 2)))


def test_one_axis_radii_and_angles_of_different_lengths_stay_a_tensor_grid():
    assert eval_field_grid(FIELD, [0.25, 0.5, 1.0], [0.0, 1.0]).shape == (3, 2)


@pytest.mark.parametrize("field", [FIELD, lambda r, phi: r**3 * np.cos(2.0 * phi) + np.sin(phi)],
                         ids=["series", "callable"])
@pytest.mark.parametrize("r, phi", [(0.5, 1.0), (0.0, 2.0), (-0.0, -0.0), (1.0, 10.0), (0.3, 1e6),
                                    (np.array(0.7), np.array(2.5)), (Fraction(1, 3), 1), (np.float32(0.6), True)])
def test_eval_field_is_the_grid_at_one_point(field, r, phi):
    value = eval_field(field, r, phi)
    assert type(value) is float
    assert value.hex() == float(eval_field_grid(field, [r], [phi])[0, 0]).hex()


def test_real_spans_read_as_their_doubles():
    assert sample_grid(FIELD, 2, 3, span=Fraction(1, 2)).tolist() == sample_grid(FIELD, 2, 3, span=0.5).tolist()
    assert sample_grid(FIELD, 2, 3, span=3).tolist() == sample_grid(FIELD, 2, 3, span=3.0).tolist()
