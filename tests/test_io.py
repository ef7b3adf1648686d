"""Deterministic serialization: fixed digits, fixed key order, exact round trips."""

import json
import math

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    FormatError,
    FourierRadialField,
    RadialProfile,
    ShapeError,
    conductivity_dtn,
    half_disk_data,
    schroedinger_dtn,
)
from eitdisk import io as eio
from eitdisk.fields import POTENTIAL


def test_format_float_17_digits():
    assert eio.format_float(0.1) == "0.10000000000000001"
    assert eio.format_float(1.0) == "1"
    assert eio.format_float(math.pi) == "3.1415926535897931"
    assert eio.format_float(-2.5e-17) == "-2.4999999999999999e-17"


def test_format_float_rejects_non_finite():
    with pytest.raises(FormatError):
        eio.format_float(float("nan"))
    with pytest.raises(FormatError):
        eio.format_float(float("inf"))


def test_format_float_roundtrips_value():
    rng = np.random.default_rng(5)
    for x in rng.standard_normal(200):
        assert float(eio.format_float(float(x))) == float(x)


def test_dumps_deterministic_and_parseable():
    doc = {"b": [1.0, 0.25, True, None], "a": {"nested": 1e-300}}
    one = eio.dumps(doc)
    two = eio.dumps(doc)
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == {"b": [1.0, 0.25, True, None], "a": {"nested": 1e-300}}
    # insertion order is preserved, not sorted
    assert one.index('"b"') < one.index('"a"')


def test_dumps_numpy_scalars():
    assert eio.dumps(np.float64(0.5)) == "0.5\n"
    assert eio.dumps(np.int64(3)) == "3\n"


def test_dumps_rejects_unknown_types():
    with pytest.raises(FormatError):
        eio.dumps({"x": object()})


def test_field_dict_roundtrip():
    field = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1.0),)), 2: RadialProfile(((2, 0.5), (4, -0.25)))},
        {1: RadialProfile(((1, 2.0),))},
    )
    back = eio.field_from_dict(eio.field_to_dict(field))
    assert back.kind == field.kind
    assert back.cos[2].terms == field.cos[2].terms
    assert back.sin[1].terms == field.sin[1].terms


def test_field_from_dict_validates():
    with pytest.raises(FormatError):
        eio.field_from_dict({"kind": "nope", "cos": {}, "sin": {}})
    with pytest.raises(FormatError):
        eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[0]]}, "sin": {}})
    with pytest.raises(FormatError):
        eio.field_from_dict([1, 2, 3])


def test_field_from_dict_rejects_non_finite_and_bool_values():
    for value in (math.nan, math.inf, -math.inf, True):
        with pytest.raises(FormatError):
            eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[0, value]]}, "sin": {}})
    with pytest.raises(FormatError):
        eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[True, 1.0]]}, "sin": {}})
    with pytest.raises(FormatError):
        eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[math.inf, 1.0]]}, "sin": {}})


def test_dtn_dict_roundtrip_conductivity():
    field = FourierRadialField(CONDUCTIVITY, {1: RadialProfile(((1, 1.0),))}, {})
    mset = conductivity_dtn(field, 3)
    doc = eio.dtn_to_dict(mset)
    assert doc["kind"] == CONDUCTIVITY
    assert doc["index_origin"]["cc"] == [1, 1]
    back = eio.dtn_from_dict(doc)
    np.testing.assert_array_equal(back.cc, mset.cc)
    np.testing.assert_array_equal(back.cs, mset.cs)
    assert back.exact is None  # float transport drops the rational tables


def test_dtn_dict_roundtrip_potential():
    field = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0),))}, {})
    mset = schroedinger_dtn(field, 2)
    back = eio.dtn_from_dict(eio.dtn_to_dict(mset))
    assert back.N == 2
    np.testing.assert_array_equal(back.cc, mset.cc)
    assert back.block("cc").shape == (3, 3)


def test_dtn_from_dict_validates_shape_and_origin():
    field = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
    doc = eio.dtn_to_dict(conductivity_dtn(field, 2))
    ragged = json.loads(json.dumps(doc))
    ragged["cc"][0] = [1.0]
    with pytest.raises(ShapeError):
        eio.dtn_from_dict(ragged)
    wrong_origin = json.loads(json.dumps(doc))
    wrong_origin["index_origin"]["cc"] = [0, 0]
    with pytest.raises(ShapeError):
        eio.dtn_from_dict(wrong_origin)
    with pytest.raises(FormatError):
        eio.dtn_from_dict({"kind": CONDUCTIVITY})


def test_dtn_from_dict_rejects_bool_n():
    field = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
    doc = eio.dtn_to_dict(conductivity_dtn(field, 1))
    doc["N"] = True  # bool is an int subclass, but not an integer N
    with pytest.raises(FormatError):
        eio.dtn_from_dict(doc)


def test_arc_data_dict_roundtrip():
    field = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
    data = half_disk_data(field, 3)
    doc = eio.arc_data_to_dict(data, alpha=math.pi / 4)
    back, alpha = eio.arc_data_from_dict(doc)
    assert alpha == pytest.approx(math.pi / 4)
    np.testing.assert_array_equal(back.values, data.values)
    no_alpha, missing = eio.arc_data_from_dict(eio.arc_data_to_dict(data))
    assert missing is None
    assert no_alpha.N == 3


def test_arc_data_from_dict_validates():
    with pytest.raises(ShapeError):
        eio.arc_data_from_dict({"N": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(ShapeError):
        eio.arc_data_from_dict({"N": 3, "data": [[1.0, 0.0], [0.0, 1.0]]})


def test_grid_csv_layout():
    rows = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.25]])
    text = eio.grid_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "x,y,value"
    assert lines[1] == "1,0,0.5"
    assert lines[2] == "0,1,-0.25"
    assert text.endswith("\n")


def test_load_json_wraps_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated", encoding="utf-8")
    with pytest.raises(FormatError):
        eio.load_json(str(bad))
    with pytest.raises(FormatError):
        eio.load_json(str(tmp_path / "missing.json"))


def test_grid_to_csv_matches_per_value_formatting():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        bits[np.isfinite(bits)][:2400], rng.standard_normal(600),
        [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.7976931348623157e308, 0.1, 1e16, 1e17],
    ])
    rows = values[: len(values) // 3 * 3].reshape(-1, 3)
    expected = "x,y,value\n" + "".join(
        f"{eio.format_float(x)},{eio.format_float(y)},{eio.format_float(v)}\n" for x, y, v in rows)
    assert eio.grid_to_csv(rows) == expected
    assert eio.grid_to_csv(np.zeros((0, 3))) == "x,y,value\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_to_csv_rejects_non_finite_values(bad):
    rows = np.ones((5, 3))
    rows[3, 2] = bad
    rows[4, 0] = math.nan
    with pytest.raises(FormatError, match=f"non-finite value {bad}$"):
        eio.grid_to_csv(rows)
