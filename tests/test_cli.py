import cmath
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from eitdisk import (
    CONDUCTIVITY,
    ArcSpec,
    ConformalMap,
    POTENTIAL,
    FourierRadialField,
    RadialProfile,
    conductivity_dtn,
    half_disk_data,
    psi_inverse,
    schroedinger_dtn,
)
import eitdisk
from eitdisk import arc_data as make_arc_data
from eitdisk import io as eio
from eitdisk.cli import main


@pytest.fixture
def field_file(tmp_path):
    field = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1.0),)), 1: RadialProfile(((1, 0.25),))},
        {2: RadialProfile(((2, -0.5),))},
    )
    path = tmp_path / "field.json"
    path.write_text(eio.dumps(eio.field_to_dict(field)), encoding="utf-8")
    return path


def test_forward_then_validate_then_invert(tmp_path, field_file, capsys):
    dtn = tmp_path / "dtn.json"
    assert main(["forward", "--input", str(field_file), "--output", str(dtn), "--nmax", "4"]) == 0
    assert main(["validate", "--input", str(dtn)]) == 0
    out = capsys.readouterr().out
    assert "cc_symmetric: deviation 0 [ok]" in out

    rec = tmp_path / "rec.json"
    assert main(["invert", "--input", str(dtn), "--output", str(rec)]) == 0
    out = capsys.readouterr().out
    assert "condition k=0: 2 18 130 882" in out
    doc = json.loads(rec.read_text(encoding="utf-8"))
    assert doc["p"]["0"][0] == pytest.approx(2.0)
    assert doc["q"]["2"][0] == pytest.approx(-0.5, abs=1e-10)

    # an invertible sibling field file is produced alongside
    sibling = tmp_path / "rec.field.json"
    back = eio.field_from_dict(eio.load_json(str(sibling)))
    assert back.kind == CONDUCTIVITY
    assert dict(back.cos[1].terms)[1] == pytest.approx(0.25, abs=1e-12)


def test_forward_requires_nmax(tmp_path, field_file, capsys):
    rc = main(["forward", "--input", str(field_file), "--output", str(tmp_path / "o.json")])
    assert rc == 2
    assert "nmax" in capsys.readouterr().err


def test_forward_oracle_report(tmp_path, field_file, capsys):
    dtn = tmp_path / "dtn.json"
    rc = main(["forward", "--input", str(field_file), "--output", str(dtn), "--nmax", "4",
               "--oracle", "--quad-r", "48", "--quad-phi", "256"])
    assert rc == 0
    assert "oracle max scaled deviation" in capsys.readouterr().out
    report = json.loads((tmp_path / "dtn.oracle.json").read_text(encoding="utf-8"))
    assert report["quad"] == [48, 256]
    assert report["max_scaled_deviation"] < 1e-8


def test_roundtrip_exit_codes(tmp_path, field_file, capsys):
    assert main(["roundtrip", "--input", str(field_file), "--nmax", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("max coefficient error:")
    assert main(["roundtrip", "--input", str(field_file), "--nmax", "4", "--rational"]) == 0
    assert capsys.readouterr().out == "max coefficient error: 0\n"


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_same_input_output_rejected(tmp_path, field_file, capsys):
    rc = main(["forward", "--input", str(field_file), "--output", str(field_file), "--nmax", "3"])
    assert rc == 2
    assert "differ" in capsys.readouterr().err


def test_shape_error_exits_3(tmp_path, field_file, capsys):
    dtn = tmp_path / "dtn.json"
    main(["forward", "--input", str(field_file), "--output", str(dtn), "--nmax", "3"])
    doc = json.loads(dtn.read_text(encoding="utf-8"))
    doc["cc"][0] = [1.0]
    dtn.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["invert", "--input", str(dtn), "--output", str(tmp_path / "r.json")]) == 3


def test_inconsistent_data_exits_4(tmp_path, field_file, capsys):
    dtn = tmp_path / "dtn.json"
    main(["forward", "--input", str(field_file), "--output", str(dtn), "--nmax", "3"])
    doc = json.loads(dtn.read_text(encoding="utf-8"))
    doc["cc"][0][1] += 1e-5
    dtn.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["invert", "--input", str(dtn), "--output", str(tmp_path / "r.json")]) == 4
    err = capsys.readouterr().err
    assert "cc_symmetric" in err
    assert "FAIL" in err
    # validate reports the same structural failure through its own exit code
    assert main(["validate", "--input", str(dtn)]) == 4


def test_validate_fails_on_nan(tmp_path, field_file, capsys):
    dtn = tmp_path / "dtn.json"
    main(["forward", "--input", str(field_file), "--output", str(dtn), "--nmax", "3"])
    doc = json.loads(dtn.read_text(encoding="utf-8"))
    doc["cc"][1][2] = doc["cc"][2][1] = math.nan
    dtn.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--input", str(dtn)]) == 4
    out = capsys.readouterr().out
    assert "cc_symmetric: deviation nan [FAIL]" in out
    assert "cc_matches_ss: deviation nan [FAIL]" in out
    assert "ss_symmetric: deviation 0 [ok]" in out


def test_validate_fails_on_nan_in_hankel_group(tmp_path, capsys):
    field = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0),))}, {})
    doc = eio.dtn_to_dict(schroedinger_dtn(field, 3))
    doc["sc"][1][2] = math.nan  # reaches the transpose, antisymmetry and Hankel checks
    dtn = tmp_path / "dtn.json"
    dtn.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--input", str(dtn)]) == 4
    out = capsys.readouterr().out
    assert "sc_plus_cs_hankel: deviation nan [FAIL]" in out


def test_outputs_byte_identical_across_runs(tmp_path, field_file):
    d1, d2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["forward", "--input", str(field_file), "--output", str(d1), "--nmax", "5"])
    main(["forward", "--input", str(field_file), "--output", str(d2), "--nmax", "5"])
    assert d1.read_bytes() == d2.read_bytes()
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["invert", "--input", str(d1), "--output", str(r1)])
    main(["invert", "--input", str(d2), "--output", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_eval_grid_csv(tmp_path, field_file):
    out = tmp_path / "grid.csv"
    assert main(["eval", "--input", str(field_file), "--output", str(out),
                 "--nr", "2", "--nphi", "4"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 2 * 4
    x, y, v = (float(s) for s in lines[1].split(","))
    assert (x, y) == (0.5, 0.0)
    assert v == pytest.approx(1.0 + 0.25 * 0.5)


def test_half_invert_cli(tmp_path):
    field = FourierRadialField(
        CONDUCTIVITY, {0: RadialProfile(((0, 1.0),)), 2: RadialProfile(((2, 1.0),))}, {}
    )
    data = half_disk_data(field, 5)
    src = tmp_path / "half.json"
    src.write_text(eio.dumps(eio.arc_data_to_dict(data)), encoding="utf-8")
    out = tmp_path / "half.csv"
    assert main(["half-invert", "--input", str(src), "--output", str(out),
                 "--nr", "3", "--nphi", "6"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3 * 6
    # first sample r=1/3, phi=0
    x, y, v = (float(s) for s in lines[1].split(","))
    assert x == pytest.approx(1 / 3)
    assert y == 0.0
    assert v == pytest.approx(1.0 + (1 / 3) ** 2, abs=1e-8)


def test_arc_invert_cli_with_map_debug(tmp_path):
    alpha = math.pi / 4
    cmap = ConformalMap(ArcSpec(alpha))

    def bump(rho, theta):
        z = psi_inverse(cmap, np.asarray(rho) * np.exp(1j * np.asarray(theta)))
        return z.imag**4

    data = make_arc_data(bump, cmap, 4)
    src = tmp_path / "arc.json"
    src.write_text(eio.dumps(eio.arc_data_to_dict(data, alpha=alpha)), encoding="utf-8")
    out = tmp_path / "arc.csv"
    assert main(["arc-invert", "--input", str(src), "--output", str(out),
                 "--nr", "2", "--nphi", "4", "--map-debug"]) == 0
    assert out.exists()
    debug_lines = (tmp_path / "arc.csv.mapdebug.csv").read_text(encoding="utf-8").splitlines()
    assert debug_lines[0] == "re_z,im_z,re_psi,im_psi"
    first = [float(s) for s in debug_lines[1].split(",")]
    assert first[0] == 1.0 and first[1] == 0.0
    expected = cmath.exp(1j * (math.pi / 2 - alpha))
    assert complex(first[2], first[3]) == pytest.approx(expected, abs=1e-12)


def test_arc_invert_requires_alpha(tmp_path, capsys):
    field = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
    data = half_disk_data(field, 3)
    src = tmp_path / "arc.json"
    src.write_text(eio.dumps(eio.arc_data_to_dict(data)), encoding="utf-8")
    rc = main(["arc-invert", "--input", str(src), "--output", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


def test_muntz_tables(capsys):
    assert main(["muntz", "--seq", "1/2,5/2"]) == 0
    out = capsys.readouterr().out
    assert "L_1: -1*x^1/2 2*x^5/2" in out
    assert "A[1]: 1/4 1/12" in out
    assert "R[1]: -6 12" in out
    assert main(["muntz", "--k", "1", "--nmax", "1"]) == 0
    out = capsys.readouterr().out
    assert "LM^1_1: -2*x^1 3*x^3" in out


def test_muntz_rejects_bad_sequence(capsys):
    assert main(["muntz", "--seq", "1/2,apple"]) == 2
    assert "bad exponent" in capsys.readouterr().err


def test_muntz_inadmissible_sequence_prints_nothing(capsys):
    assert main(["muntz", "--seq=-1/2,3,1/3,7/2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "outside L^2" in err


def _raw_field_file(tmp_path, value):
    path = tmp_path / "field.json"
    path.write_text('{"kind":"conductivity","cos":{"0":[[0,%s]]},"sin":{}}' % value, encoding="utf-8")
    return str(path)


def test_forward_rejects_nan_field_value(tmp_path, capsys):
    rc = main(["forward", "--input", _raw_field_file(tmp_path, "NaN"),
               "--output", str(tmp_path / "dtn.json"), "--nmax", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["forward", "roundtrip"])
def test_entry_beyond_double_range_exits_2(tmp_path, capsys, command):
    argv = [command, "--input", _raw_field_file(tmp_path, "1.7e308"), "--nmax", "3"]
    if command == "forward":
        argv += ["--output", str(tmp_path / "dtn.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "range of a double" in err and err.count("\n") == 1


def test_python_dash_m_runs_the_cli():
    src = str(pathlib.Path(eitdisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "eitdisk", "muntz", "--k", "0", "--nmax", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "LM^0_1: -1*x^0 2*x^2" in proc.stdout


# ------------------------------------------------------------------ fuzzing

_FUZZ_COMMANDS = (
    ("forward", "field", ["--output", "{out}", "--nmax", "3"]),
    ("forward", "field", ["--output", "{out}", "--nmax", "2", "--oracle", "--quad-r", "16", "--quad-phi", "64"]),
    ("roundtrip", "field", ["--nmax", "3"]),
    ("eval", "field", ["--output", "{out}", "--nr", "2", "--nphi", "3"]),
    ("invert", "dtn", ["--output", "{out}"]),
    ("validate", "dtn", []),
    ("half-invert", "arc", ["--output", "{out}", "--nr", "2", "--nphi", "3"]),
    ("arc-invert", "arc", ["--output", "{out}", "--nr", "2", "--nphi", "3"]),
)
_ODD_NUMBERS = (math.nan, math.inf, -math.inf, True, False, 1e308, -1e308, -1.7e308)
_ODD_VALUES = ("x", 2, 1.5, -1, [], {}, None, True, [[1.0]], {"0": 1})
_ODD_SIZES = (-1, 0, 1, 2, 5, 10**9, 3.0, "3", True, None)


def _fuzz_documents():
    cond = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1.0),)), 1: RadialProfile(((1, 0.25), (3, -0.5)))},
        {2: RadialProfile(((2, -0.5),))},
    )
    pot = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0), (2, 0.5)))},
                             {1: RadialProfile(((1, 0.25),))})
    cos_only = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),)),
                                                 1: RadialProfile(((1, 0.5),))}, {})
    return {
        "field": [eio.field_to_dict(cond), eio.field_to_dict(pot)],
        "dtn": [eio.dtn_to_dict(conductivity_dtn(cond, 3)), eio.dtn_to_dict(schroedinger_dtn(pot, 2))],
        "arc": [eio.arc_data_to_dict(half_disk_data(cos_only, 3), alpha=math.pi / 4)],
    }


def _nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _set(doc, path, value):
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _mutate(doc, rng):
    """One random damage: drop a key, swap a type, an odd number, a ragged row or a wrong size."""
    nodes = list(_nodes(doc))
    how = rng.choice(("drop", "swap", "number", "ragged", "size"))
    if how == "drop":
        dicts = [(p, v) for p, v in nodes if isinstance(v, dict) and v]
        if dicts:
            _, target = rng.choice(dicts)
            del target[rng.choice(sorted(target))]
            return doc
    if how == "number":
        leaves = [p for p, v in nodes if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if leaves:
            return _set(doc, rng.choice(leaves), rng.choice(_ODD_NUMBERS))
    if how == "ragged":
        rows = [v for p, v in nodes if len(p) > 1 and isinstance(v, list) and v
                and not isinstance(v[0], (list, dict))]
        if rows:
            row = rng.choice(rows)
            if rng.random() < 0.5:
                row.pop()
            else:
                row.append(rng.choice((0.5, [0.5])))
            return doc
    if how == "size":
        if isinstance(doc, dict) and "N" in doc and rng.random() < 0.7:
            doc["N"] = rng.choice(_ODD_SIZES)
            return doc
        tables = [v for p, v in nodes if len(p) == 1 and isinstance(v, dict) and v]
        if tables:
            table = rng.choice(tables)
            table[str(rng.choice(_ODD_SIZES))] = table.pop(rng.choice(sorted(table)))
            return doc
    path, _ = rng.choice(nodes)
    return _set(doc, path, rng.choice(_ODD_VALUES))


def test_fuzzed_documents_exit_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(20261018)
    bases = _fuzz_documents()
    src, out = tmp_path / "in.json", tmp_path / "out.dat"
    failures = []
    for case in range(210):
        command, doc_type, extra = rng.choice(_FUZZ_COMMANDS)
        doc = json.loads(json.dumps(rng.choice(bases[doc_type])))
        for _ in range(rng.choice((1, 1, 2))):
            doc = _mutate(doc, rng)
        text = json.dumps(doc)
        src.write_text(text, encoding="utf-8")
        argv = [command, "--input", str(src), *(a.format(out=out) for a in extra)]
        # a warning would print further stderr lines in a real run
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:  # an escaping exception is a traceback
                code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        lines = err.splitlines()
        allowed = len(lines) if code == 4 else 1
        if code not in (0, 1, 2, 3, 4) or len(lines) > allowed or "Traceback" in err or caught:
            failures.append(f"case {case}: {command} {text[:160]} -> {code!r}, stderr {lines[:2]}, "
                            f"warnings {[str(w.message) for w in caught][:2]}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("flag", ["--nr", "--nphi"])
def test_arc_invert_empty_grid_exits_2(tmp_path, capsys, flag):
    field = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {})
    src = tmp_path / "arc.json"
    src.write_text(eio.dumps(eio.arc_data_to_dict(half_disk_data(field, 3), alpha=math.pi / 4)),
                   encoding="utf-8")
    rc = main(["arc-invert", "--input", str(src), "--output", str(tmp_path / "o.csv"), flag, "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "grid sizes must be positive" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["forward", "--output", "{tmp}/dtn.json", "--nmax", "65"],
    ["roundtrip", "--nmax", "65"],
    ["muntz", "--nmax", "65"],
    ["muntz", "--k", "65"],
])
def test_mode_count_above_cap_exits_2(tmp_path, field_file, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] != "muntz":
        argv += ["--input", str(field_file)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "above the cap of 64" in err and err.count("\n") == 1
    assert not (tmp_path / "dtn.json").exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
@pytest.mark.parametrize("command", ["validate", "invert", "roundtrip", "half-invert", "arc-invert"])
def test_nan_or_negative_tol_exits_2(tmp_path, field_file, capsys, command, tol):
    if command in ("validate", "invert"):
        src = tmp_path / "dtn.json"
        assert main(["forward", "--input", str(field_file), "--output", str(src), "--nmax", "3"]) == 0
    elif command == "roundtrip":
        src = field_file
    else:
        src = tmp_path / "half.json"
        data = half_disk_data(FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),))}, {}), 3)
        src.write_text(eio.dumps(eio.arc_data_to_dict(data, alpha=math.pi / 4)), encoding="utf-8")
    capsys.readouterr()
    argv = [command, "--input", str(src), f"--tol={tol}"]
    if command not in ("validate", "roundtrip"):
        argv += ["--output", str(tmp_path / "out")]
    if command == "roundtrip":
        argv += ["--nmax", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: tolerance must be >= 0") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
