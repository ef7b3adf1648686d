"""Deterministic serialization: fixed digits, fixed key order, exact round trips."""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    ArcSpec,
    ConformalMap,
    FormatError,
    FourierRadialField,
    HalfDiskData,
    RadialProfile,
    ShapeError,
    arc_data,
    conductivity_dtn,
    half_disk_data,
    reconstruct,
    schroedinger_dtn,
)
from eitdisk import io as eio
from eitdisk.cli import main
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
    for value in (math.nan, math.inf, -math.inf, True, "1.5", None, 10**400):
        with pytest.raises(FormatError):
            eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[0, value]]}, "sin": {}})
    with pytest.raises(FormatError):
        eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[True, 1.0]]}, "sin": {}})
    with pytest.raises(FormatError):
        eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[math.inf, 1.0]]}, "sin": {}})


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "1_0", "-0", "1.0", "", "None", "\u0661"])
def test_field_from_dict_rejects_an_order_key_not_written_as_str_writes_an_int(key):
    with pytest.raises(FormatError, match="angular order key"):
        eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {key: [[1, 2.0]]}, "sin": {}})
    # "1" and "01" once both read as order 1, and the later profile replaced the earlier
    with pytest.raises(FormatError, match="angular order key"):
        eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"1": [[1, 1.0]], key: [[1, 2.0]]}, "sin": {}})
    field = eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[0, 1.0]], "12": [[12, 2]]}, "sin": {"3": []}})
    assert list(field.cos) == [0, 12] and field.cos[12].terms == ((12, 2.0),) and list(field.sin) == [3]


def test_field_from_dict_rejects_a_non_integer_power():
    for power in (2.5, 2.0, "2", 1e308):  # a truncating int() would read 2.5 as 2
        with pytest.raises(FormatError, match="integers only"):
            eio.field_from_dict({"kind": CONDUCTIVITY, "cos": {"0": [[power, 1.0]]}, "sin": {}})


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
    for n in (True, 1.0, "1", None):  # bool is an int subclass, but not an integer N
        doc["N"] = n
        with pytest.raises(FormatError):
            eio.dtn_from_dict(doc)
    for bad in ("0.5", None, True, 10**400):
        doc["N"], doc["cc"] = 1, [[bad]]
        with pytest.raises(FormatError, match="block 'cc'"):
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
    for n in (2.0, True, "2"):  # a JSON integer, as the matrix document's N
        with pytest.raises(FormatError, match="declared 'N' must be an integer"):
            eio.arc_data_from_dict({"N": n, "data": [[1.0, 0.0], [0.0, 1.0]]})
    for alpha in ("0.5", True, [0.5], 10**400):
        with pytest.raises(FormatError, match="'alpha'"):
            eio.arc_data_from_dict({"alpha": alpha, "data": [[1.0, 0.0], [0.0, 1.0]]})
    assert eio.arc_data_from_dict({"alpha": 1, "N": 1, "data": [[2]]})[1] == 1.0


def test_grid_csv_layout():
    rows = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.25]])
    text = eio.grid_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "x,y,value"
    assert lines[1] == "1,0,0.5"
    assert lines[2] == "0,1,-0.25"
    assert text.endswith("\n")


@pytest.mark.parametrize("call, message", [
    (lambda: eio.dtn_from_dict([]), "matrix document must be a JSON object"),
    (lambda: eio.arc_data_from_dict([]), "data document must be a JSON object"),
    (lambda: eio.grid_to_csv([[1.0, 2.0]]), "grid must be an array of \\(x, y, value\\) rows"),
], ids=["dtn_from_dict", "arc_data_from_dict", "grid_to_csv"])
def test_documents_and_grids_of_the_wrong_form_are_format_errors(call, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        call()


def test_load_json_wraps_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated", encoding="utf-8")
    with pytest.raises(FormatError):
        eio.load_json(str(bad))
    with pytest.raises(FormatError):
        eio.load_json(str(tmp_path / "missing.json"))
    for name, data in (("repeated", b'{"cos": {"0": [[0, 1.0]], "0": [[0, 2.0]]}}'),
                       ("utf8", b'\xff\xfe{}'), ("deep", b"[" * 100000 + b"]" * 100000),
                       ("digits", b"[1" + b"0" * 5000 + b"]")):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="appears twice" if name == "repeated" else "as JSON"):
            eio.load_json(str(path))
    ok = tmp_path / "ok.json"
    ok.write_text('{"a": {"b": 1, "c": [{"b": 2}]}, "b": 3}', encoding="utf-8")
    assert eio.load_json(str(ok)) == {"a": {"b": 1, "c": [{"b": 2}]}, "b": 3}


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


def _reference_csv(header, rows):
    """The CSV text formatted value by value with "%.17g", the bytes ``_csv``'s integer kernel must write."""
    return header + "\n" + "".join(",".join(["%.17g"] * len(row)) % tuple(row) + "\n" for row in rows.tolist())


def _csv_vector(name):
    """Seeded values on each edge of the kernel's range [1e-4, 1e16), its rounding and its layout, by name."""
    rng = np.random.default_rng(32)
    if name == "bit patterns":
        values = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
        return values[np.isfinite(values)]
    if name == "beside powers of ten":
        powers = [float(f"1e{k}") for k in range(-6, 19)]
        return np.array([math.nextafter(v, t) for v in powers for t in (0.0, math.inf)] + powers)
    if name == "half-way":  # x * 10**(16 - X) = D + 1/2 for a 17-digit D: x = m / 2**(17 - X), m * 5**(16 - X) odd
        values = []
        for X in range(-5, 18):
            five = Fraction(5) ** (16 - X)
            low, high = math.ceil(2 * 10**16 / five), min(math.floor(2 * 10**17 / five), 2**53)
            for m in (rng.integers(low, high, 40) | 1).tolist() if low < high else ():  # none from X = 16 on
                x = math.ldexp(m, X - 17)
                assert (Fraction(x) * 10 ** (16 - X)).denominator == 2
                values.append(x)
        return np.array(values)
    if name == "extremes":
        return np.array([0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e17, 2.0**53, 1e-4, 1e-5])
    if name == "integers":
        return np.concatenate([rng.integers(0, 2**53, 3000), rng.integers(0, 10**17, 3000), 2 ** np.arange(54),
                               10 ** np.arange(18)]).astype(float)
    assert name == "short decimals"  # trailing zeros to strip, in the fraction or the integer part
    return rng.integers(1, 10**6, 6000) * 10.0 ** rng.integers(-12, 14, 6000)


@pytest.mark.parametrize("name", ["bit patterns", "beside powers of ten", "half-way", "extremes", "integers",
                                  "short decimals"])
def test_grid_to_csv_writes_the_bytes_of_per_value_formatting(name):
    values = _csv_vector(name)
    if name != "bit patterns":  # which hold both signs
        values = np.concatenate([values, -values])
    rows = np.resize(values, (len(values) + 2) // 3 * 3).reshape(-1, 3)
    assert eio.grid_to_csv(rows) == _reference_csv("x,y,value", rows)


@pytest.mark.parametrize("header, shape", [("x,y,value", (0, 3)), ("x,y,value", (1, 3)), ("x,y,value", (1536, 3)),
                                           ("re_z,im_z,re_psi,im_psi", (64, 4))])  # the last: --map-debug
def test_csv_of_each_shape_writes_the_bytes_of_per_value_formatting(header, shape):
    rng = np.random.default_rng(shape[0])
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 18, shape)
    assert eio._csv(header, rows) == _reference_csv(header, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_to_csv_rejects_non_finite_values(bad):
    rows = np.ones((5, 3))
    rows[3, 2] = bad
    rows[4, 0] = math.nan
    with pytest.raises(FormatError, match=f"non-finite value {bad}$"):
        eio.grid_to_csv(rows)


# one-pass list formatting against the recursive encoder ---------------------------

def _reference_encode(obj):
    """The item-by-item encoder: every value formatted by its own call."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_reference_encode(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_encode(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return eio.format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def _random_doubles(rng, count):
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    values = [float(v) for v in bits.view(np.float64) if math.isfinite(v)]
    return values + [-0.0, 0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 2.2250738585072014e-308]


def test_dumps_equals_the_recursive_encoder():
    rng = np.random.default_rng(17)
    doubles = _random_doubles(rng, 4000)
    doc = {
        "floats": doubles,
        "pairs": [[int(p), v] for p, v in zip(rng.integers(-3, 10**6, len(doubles)), doubles)],
        "rows": [doubles[i:i + 9] for i in range(0, 90, 9)],
        "empty": [], "empty_rows": [[], []], "tuple": tuple(doubles[:5]),
        "bools": [True, False, True], "mixed": [1.5, 2, True, None, "s", np.float64(0.1)],
        "numpy": [np.float64(v) for v in doubles[:50]], "numpy_pairs": [[np.int64(2), 0.5]],
        "bool_pairs": [[True, 0.5], [False, -1.5]], "int_bool_pairs": [[1, 0.5], [2, False]], "ints": [1, 2, 3], "long_pair": [[1, 2.0, 3.0]],
        "nested": {"a": {"b": [[0, -0.0], [1, 5e-324]], "c": [[1.0, 2.0], [3.0]]}, "d": {}},
        "tuple_pairs": [(1, 0.5), (2, 0.25)], "int_int_pairs": [[1, 0.5], [2, 3]], "three_rows": [[1, 0.5, 2.0]] * 2,
        "ragged_pairs": [[1, 0.5], [2, 0.25, 1.0]], "swapped_pairs": [[0.5, 1], [0.25, 2]],
        "pairs_then_float": [[1, 0.5], 0.5], "float_then_int": [0.5, 1], "int_float_rows": [[1, 0.5], [0.25, 2]],
    }
    assert eio.dumps(doc) == _reference_encode(doc) + "\n"
    for value in doc.values():
        assert eio.dumps(value) == _reference_encode(value) + "\n"
    assert json.loads(eio.dumps(doc))["floats"] == doubles


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", ["floats", "pairs", "numpy", "nested"])
def test_dumps_rejects_non_finite_values_with_the_recursive_message(bad, shape):
    values = [0.5, -1.25, bad, math.nan, 3.0]
    doc = {"floats": values, "pairs": [[i, v] for i, v in enumerate(values)],
           "numpy": [np.float64(v) for v in values],
           "nested": {"p": {"0": [[0, 1.0]], "1": [[1, bad]]}}}[shape]
    with pytest.raises(FormatError) as want:
        _reference_encode(doc)
    with pytest.raises(FormatError) as got:
        eio.dumps(doc)
    assert str(got.value) == str(want.value)


# golden outputs: sha256 of the serialized documents --------------------------------

_F = Fraction
_GOLDEN_FIELDS = {
    (CONDUCTIVITY, 0): FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1), (2, _F(-1, 3)))), 1: RadialProfile(((1, _F(1, 4)),)),
         3: RadialProfile(((3, _F(2, 7)), (5, -1)))},
        {2: RadialProfile(((2, _F(-1, 2)), (4, _F(5, 11))))}),
    (CONDUCTIVITY, 1): FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 0.75), (4, -0.125))), 2: RadialProfile(((2, 0.1),))},
        {1: RadialProfile(((1, 1.5), (3, -2.25))), 3: RadialProfile(((3, 0.3),))}),
    (POTENTIAL, 0): FourierRadialField(
        POTENTIAL,
        {0: RadialProfile(((0, 2), (2, _F(1, 3)))), 2: RadialProfile(((2, _F(-3, 5)),)),
         4: RadialProfile(((4, _F(1, 9)),))},
        {1: RadialProfile(((1, _F(7, 8)), (3, _F(-1, 6))))}),
    (POTENTIAL, 1): FourierRadialField(
        POTENTIAL,
        {0: RadialProfile(((0, -0.5),)), 1: RadialProfile(((1, 0.2), (3, 0.7)))},
        {2: RadialProfile(((2, -1.25),)), 4: RadialProfile(((4, 0.05), (6, 3.0)))}),
}

_GOLDEN_SHA256 = {
    ("conductivity", 0, 4, "dtn"): "858fb913cfe59558be90d1433066cc22193d161825dccf3649b90d82e325dfe3",
    ("conductivity", 0, 4, "reconstruction"): "ea982d0e1e745f6592bf41310c6fe1e8d8d19f629a61f462e04d5591c83189c0",
    ("conductivity", 0, 4, "field"): "32ddbca3f1700bdb4d8a51c9a1009f5ca9367fe91071826aa2a7fbf5c8767931",
    ("conductivity", 0, 6, "dtn"): "104554b7c6bdfaead22b72189fa6b8adc1b1bf3e5c1eee5da47af1e12cea0ad9",
    ("conductivity", 0, 6, "reconstruction"): "657667e20c42ae4df5701c7c3166e457eb7e78edc3ca819e92bb481bc2305562",
    ("conductivity", 0, 6, "field"): "7755111881860e732fad3891a5818811991a204ba97fd9d704c4e2e34f681ef8",
    ("conductivity", 1, 4, "dtn"): "8b41354453408bb3d0b83ee7c8b9b920afdb5575402171967dfe75f89eb0c566",
    ("conductivity", 1, 4, "reconstruction"): "f0edab7f35ad91ae423aabcd9508c13715a64cfe17d0acd3df752a98b7de6175",
    ("conductivity", 1, 4, "field"): "4c1e531b150a7c9053a50386de43cd2f55edde601600562ea5908c822d005de0",
    ("conductivity", 1, 6, "dtn"): "6e9903c13f79f52f2a8136cdca0ec0ea3e48000098f96fddaab61ef58a6df99f",
    ("conductivity", 1, 6, "reconstruction"): "4beedb6e80f4f51d9dfe8e0fe15cd4b98541bb7ccce7f4c52738f80812150b47",
    ("conductivity", 1, 6, "field"): "7a8295fb445a52241ab784eb916392fcc6e6de79b22340686877c6e8a3a0d343",
    ("potential", 0, 4, "dtn"): "645cc21b3c88fb00cda46ec27f39865392648d8e018bdd883c6fb99f806b3508",
    ("potential", 0, 4, "reconstruction"): "4d460d295958598093e8728d590b1946877c8834925cfdba07a07475b4b70e2b",
    ("potential", 0, 4, "field"): "289fa654f596d35060ceb7c0547e61e6c7b70ab15974703f89ec0dae01d14c31",
    ("potential", 0, 6, "dtn"): "d26eb7d5e1f2886d416cb03dcf7cbb6116cdb2c489f13bfca40ad8a38e43c15c",
    ("potential", 0, 6, "reconstruction"): "893c5222f005a09111ee165ce3378012c26489c46f394fdb1b9da8ee79b1f7fa",
    ("potential", 0, 6, "field"): "e56e0d0658b9be81e0c9c3d17cf432e416e98b82dbb1c9ef4a400b3128ca95d2",
    ("potential", 1, 4, "dtn"): "24327467421d0a119a650164392fe7b77e2d1172e2ebac4d7c78f2a4e0599925",
    ("potential", 1, 4, "reconstruction"): "3e17ccb8f610ce088e222a67f5f438043057592760bf050bbc41c5cf510e5051",
    ("potential", 1, 4, "field"): "50676825d87eb8f1d15dba2a5e806d2c2a25ecc8b93bb537737e5bde75389bcf",
    ("potential", 1, 6, "dtn"): "12669079d06827215e70ff5c5471c250bfaa2ccd03d6f34585cc85aa7e97ec0d",
    ("potential", 1, 6, "reconstruction"): "18db250db010d55000cd1753d18e78b3c5ad2ef50386127a952b6ef4fc69dbba",
    ("potential", 1, 6, "field"): "ba09fe385a23e0a85c61f4f781bcc9067dfa1484fba6818e7c9a872df2b0fa4e",
}


@pytest.mark.parametrize("kind,index", sorted(_GOLDEN_FIELDS))
@pytest.mark.parametrize("N", [4, 6])
def test_serialized_outputs_match_their_golden_digests(kind, index, N):
    field = _GOLDEN_FIELDS[kind, index]
    mset = (conductivity_dtn if kind == CONDUCTIVITY else schroedinger_dtn)(field, N)
    rec = reconstruct(mset)
    docs = {"dtn": eio.dtn_to_dict(mset), "reconstruction": eio.reconstruction_to_dict(rec),
            "field": eio.field_to_dict(rec.to_field())}
    for label, doc in docs.items():
        digest = hashlib.sha256(eio.dumps(doc).encode("utf-8")).hexdigest()
        assert digest == _GOLDEN_SHA256[kind, index, N, label], label


def _span_field(kind, N, seed):
    """Seeded rational field inside the recoverable span at truncation N (powers 2l + k)."""
    rng = random.Random(seed)
    top = N if kind == CONDUCTIVITY else N + 1

    def profile(k):
        return RadialProfile(tuple((2 * l + k, _F(rng.randint(-8, 8), rng.randint(1, 8))) for l in range(top - k)))

    return FourierRadialField(kind, {k: profile(k) for k in range(top)}, {k: profile(k) for k in range(1, top)})


_SPAN_SHA256 = {
    (CONDUCTIVITY, 8, "dtn"): "30e016159d725916945c461a8f66685c1e36b35140ef979b99a17de1edbf2c04",
    (CONDUCTIVITY, 8, "reconstruction"): "315b063840397f9125b5c371e1412174664dee2cbfd8a150dd829ab262aa2abd",
    (CONDUCTIVITY, 8, "field"): "bf05640759c8565a4dfb2bfdc2429d645f5876c0f9cccdee82ab14ef445c4acb",
    (CONDUCTIVITY, 16, "dtn"): "ce3cd353d7d5b6dd2a635dd665d06c938f423548edb5e760529ef522e95308f2",
    (CONDUCTIVITY, 16, "reconstruction"): "32885f96c397ca1667bdcb1add31b77ad2e9baccb0dfcac222b171a0eaff6a66",
    (CONDUCTIVITY, 16, "field"): "b9b47819ec5694c3224d4d698b2a310bdbe65e63e3ab797976a10ebea7e71d41",
    (POTENTIAL, 8, "dtn"): "882d8dfd6f75c3b56a5b2e3a45bccd5f6c5042e4ab6aa5ac6fefc3493ba7010b",
    (POTENTIAL, 8, "reconstruction"): "5980bed43cbe5d5b86d3223211fe2fb7508015f0e171226aeac92f3e5461b5b2",
    (POTENTIAL, 8, "field"): "49bb3e91cb313b49fccd5cfd9490458cfd96ad5010ca82690e1f5f01bfd8092d",
    (POTENTIAL, 16, "dtn"): "2ad36d49338b129f2d1ab03607eeeb95c4fe97f25c2b7a0bedd7ed83f757d385",
    (POTENTIAL, 16, "reconstruction"): "229d8c6bfa3884b9f8d4b063fa102df11012d7bb8b75c0037fe03355098a6cc5",
    (POTENTIAL, 16, "field"): "5092c909a17c83001d67ce732adf0fec1c6513e4fc6f7a30f9f7a6233ee0358c",
    (CONDUCTIVITY, 24, "dtn"): "37e9cf5c69da2683199e02055e5b8668f8a4790671953f5f9207a45700e74b33",
    (CONDUCTIVITY, 24, "reconstruction"): "3bbd6a7be102b9e0868cb85b920960447eb141ff6f8f8c3737001fe18b5e4c04",
    (CONDUCTIVITY, 24, "field"): "deee189e9a498909f7acf21228036989a6d03d33f8293366a235dbcf6533c6b6",
    (POTENTIAL, 24, "dtn"): "31b7ba5672428cac0f32e62f5ec8c2904e56937d85190c4fa9d82d693221c531",
    (POTENTIAL, 24, "reconstruction"): "2d3f1c3bb4bdcfa1f5bce546c36dd33c496cdaf18a42506d6b1bbf2f296dc43f",
    (POTENTIAL, 24, "field"): "b6ecce4cf7d8b428015baaa4023d7c18002291983b616ecc2792a93e3b461eb1",
}


@pytest.mark.parametrize("kind", [CONDUCTIVITY, POTENTIAL])
@pytest.mark.parametrize("N", [8, 16, 24])
def test_span_field_outputs_match_their_golden_digests(kind, N):
    mset = (conductivity_dtn if kind == CONDUCTIVITY else schroedinger_dtn)(_span_field(kind, N, seed=N), N)
    rec = reconstruct(mset)
    docs = {"dtn": eio.dtn_to_dict(mset), "reconstruction": eio.reconstruction_to_dict(rec),
            "field": eio.field_to_dict(rec.to_field())}
    for label, doc in docs.items():
        digest = hashlib.sha256(eio.dumps(doc).encode("utf-8")).hexdigest()
        assert digest == _SPAN_SHA256[kind, N, label], label


def _wide_field(kind, N, seed):
    """Seeded float field outside the span at truncation N: every order up to N, radial powers up to 3N."""
    rng = random.Random(seed)

    def profile():
        return RadialProfile(tuple((p, rng.uniform(-1.0, 1.0)) for p in sorted(rng.sample(range(3 * N + 1), 4))))

    return FourierRadialField(kind, {k: profile() for k in range(N + 1)}, {k: profile() for k in range(1, N + 1)})


_POINTWISE_GRID_SHA256 = {
    CONDUCTIVITY: "a7d610b774878227297cc3e8f6c60a68d03558d0b0fb2a039e306cfcc329098e",
    POTENTIAL: "68b0eb24b4c35f61d30844bb87fd7b7ca21c20f29b8ce0039d578fb007b5f3e1",
}


@pytest.mark.parametrize("kind", [CONDUCTIVITY, POTENTIAL])
def test_pointwise_grid_of_a_float_document_matches_its_golden_digest(kind):
    # a float document read back and solved exactly, then sampled point by point
    # on the command line's default 24 x 64 grid, radius outer
    mset = (conductivity_dtn if kind == CONDUCTIVITY else schroedinger_dtn)(_wide_field(kind, 12, seed=12), 12)
    loaded = eio.dtn_from_dict(json.loads(eio.dumps(eio.dtn_to_dict(mset))))
    rec = reconstruct(loaded, arithmetic="rational")
    points = [(i / 24, 2.0 * math.pi * j / 64) for i in range(1, 25) for j in range(64)]
    rows = [(r * math.cos(phi), r * math.sin(phi), rec.evaluate(r, phi)) for r, phi in points]
    digest = hashlib.sha256(eio.grid_to_csv(rows).encode("utf-8")).hexdigest()
    assert digest == _POINTWISE_GRID_SHA256[kind]


def _half_disk_document(seed, N, alpha=None):
    """Seeded float data document: the half-disk data of a cosine field, or its arc data at ``alpha``.

    Entries above the diagonal are moved by up to 1e-12 of the largest, so the
    inversion symmetrizes data that are not exactly symmetric.
    """
    rng = random.Random(seed)
    field = FourierRadialField(CONDUCTIVITY, {k: RadialProfile(tuple(
        (p, rng.uniform(-1.0, 1.0)) for p in sorted(rng.sample(range(k, k + 7), 2)))) for k in range(N)}, {})
    data = (half_disk_data(field, N) if alpha is None else arc_data(field, ConformalMap(ArcSpec(alpha)), N)).values
    scale = float(np.max(np.abs(data)))
    for i in range(N):
        for j in range(i + 1, N):
            data[i, j] += rng.uniform(-1e-12, 1e-12) * scale
    return eio.dumps(eio.arc_data_to_dict(HalfDiskData(data), alpha=alpha))


_HALF_ARC_SHA256 = {
    "half": "0b46427bcb1a8583f8d19ae2b7163832d778c3c6477e5c8239ae4c2b5162b443",
    "half --reg-cap 2": "2550c3ec652c53a9cced1977f9d828c06f4b12ebe7615c69d0ab02d6e4830744",
    "half --nmax 4": "a6606c429c8955871efbddf0ad2937fdeca7ce1a8b28b0fb74e3ce42ee760c01",
    "arc": "2f76b058a7b8fe036ef11bb8f8ea8df2aa77c061a502e791f42ac22f86291c00",
    "arc --reg-cap 1": "4f0d7b492fbbc7ee9ca0abc0330a391e678ea4aa38c2b63ee64e05f694edf0b5",
    "asymmetric": "c3e328d71b64b148420498c3f90e31e0dde3e8bdf1dfbbfcdc1b952f1121ee52",
}


@pytest.mark.parametrize("case", sorted(_HALF_ARC_SHA256))
def test_half_disk_and_arc_cli_outputs_match_their_golden_digests(tmp_path, capsys, case):
    # the half-invert and arc-invert CSVs of seeded documents, and the report of
    # a document whose asymmetry fails the default tolerance
    label, *flags = case.split()
    text = _half_disk_document(seed=6, N=6, alpha=0.7 if label == "arc" else None)
    if label == "asymmetric":
        doc = json.loads(text)
        doc["data"][1][3] += 1e-6
        text = json.dumps(doc)
    src, out = tmp_path / "in.json", tmp_path / "out.csv"
    src.write_text(text, encoding="utf-8")
    command = "arc-invert" if label == "arc" else "half-invert"
    code = main([command, "--input", str(src), "--output", str(out), "--nr", "5", "--nphi", "12", *flags])
    if label == "asymmetric":
        assert code == 4
        produced = capsys.readouterr().err.encode("utf-8")
    else:
        assert code == 0
        produced = out.read_bytes()
    assert hashlib.sha256(produced).hexdigest() == _HALF_ARC_SHA256[case]
