import cmath
import copy
import hashlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings
from fractions import Fraction

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
from eitdisk.cli import MAX_GRID, main


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
    assert capsys.readouterr().out == "max coefficient error: 0\n"  # an assembled set solves exactly
    assert main(["roundtrip", "--input", str(field_file), "--nmax", "4", "--rational"]) == 2
    assert capsys.readouterr() == ("", "error: eitdisk: unrecognized arguments: --rational\n")


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_same_input_output_rejected(tmp_path, field_file, capsys):
    rc = main(["forward", "--input", str(field_file), "--output", str(field_file), "--nmax", "3"])
    assert rc == 2
    assert "differ" in capsys.readouterr().err


@pytest.mark.parametrize("command, source, output, options", [
    ("forward", "./d.json", "d.json", ["--nmax", "3"]),
    ("forward", "d.oracle.json", "./d.json", ["--nmax", "3", "--oracle"]),
    ("invert", "r.field.json", "r.json", []),
    ("arc-invert", "a.csv.mapdebug.csv", "a.csv", ["--nr", "2", "--nphi", "4", "--map-debug"]),
])
def test_an_output_or_sibling_that_resolves_to_the_input_is_rejected(
        tmp_path, monkeypatch, field_file, capsys, command, source, output, options):
    field = eio.field_from_dict(json.loads(field_file.read_text(encoding="utf-8")))
    documents = {"forward": eio.field_to_dict(field), "invert": eio.dtn_to_dict(conductivity_dtn(field, 3)),
                 "arc-invert": eio.arc_data_to_dict(half_disk_data(field, 3), alpha=0.5)}
    monkeypatch.chdir(tmp_path)
    text = eio.dumps(documents[command])
    pathlib.Path(source).write_text(text, encoding="utf-8")
    assert main([command, "--input", source, "--output", output, *options]) == 2
    assert capsys.readouterr().err == "error: input and output paths must differ\n"
    assert pathlib.Path(source).read_text(encoding="utf-8") == text
    assert sorted(os.listdir()) == sorted({"field.json", os.path.basename(source)})  # nothing written


def test_a_sibling_that_is_not_written_may_be_the_input(tmp_path, monkeypatch, field_file):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("d.oracle.json").write_bytes(field_file.read_bytes())
    assert main(["forward", "--input", "d.oracle.json", "--output", "d.json", "--nmax", "3"]) == 0


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


@pytest.mark.parametrize("alpha, digest", [
    (math.pi / 4, "1308ce8c6339bf017834e2d37eb0e70b7634a24008dca20379160b949b8566ab"),
    (math.pi / 3, "1c70ae8db5ecc74e86c091a037e29226f5c105debe161e4147af7b3f6fd86cfc"),
])
def test_map_debug_csv_bytes_are_pinned(tmp_path, alpha, digest):
    cmap = ConformalMap(ArcSpec(alpha))

    def bump(rho, theta):
        z = psi_inverse(cmap, np.asarray(rho) * np.exp(1j * np.asarray(theta)))
        return z.imag**4

    src = tmp_path / "arc.json"
    src.write_text(eio.dumps(eio.arc_data_to_dict(make_arc_data(bump, cmap, 4), alpha=alpha)),
                   encoding="utf-8")
    out = tmp_path / "arc.csv"
    assert main(["arc-invert", "--input", str(src), "--output", str(out),
                 "--nr", "2", "--nphi", "4", "--map-debug"]) == 0
    text = (tmp_path / "arc.csv.mapdebug.csv").read_bytes()
    assert text.count(b"\n") == 65
    assert hashlib.sha256(text).hexdigest() == digest


def test_invert_of_a_potential_document_prints_its_extra_moments(tmp_path, capsys):
    field = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0), (6, 0.5))), 5: RadialProfile(((5, 0.25),))},
                               {4: RadialProfile(((4, -0.75),))})
    mset = schroedinger_dtn(field, 3)
    src = tmp_path / "dtn.json"
    src.write_text(eio.dumps(eio.dtn_to_dict(mset)), encoding="utf-8")
    assert main(["invert", "--input", str(src), "--output", str(tmp_path / "rec.json")]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("extra ")]
    extra = eitdisk.extra_hankel_moments(eio.dtn_from_dict(json.loads(src.read_text(encoding="utf-8"))))
    assert printed == [f"extra {parity} moment l={l}: {eio.format_float(extra[parity][l])}"
                       for parity in ("cos", "sin") for l in range(4, 7)]
    assert any(extra[parity][l] != 0.0 for parity in ("cos", "sin") for l in range(4, 7))


def test_arc_invert_alpha_flag_overrides_the_document(tmp_path):
    data = half_disk_data(FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0), (2, 0.5)))}, {}), 4)
    outputs = []
    for alpha_in_document, flags in ((0.3, ["--alpha", "0.9"]), (0.9, []), (0.3, [])):
        src = tmp_path / f"arc{len(outputs)}.json"
        src.write_text(eio.dumps(eio.arc_data_to_dict(data, alpha=alpha_in_document)), encoding="utf-8")
        out = tmp_path / f"arc{len(outputs)}.csv"
        assert main(["arc-invert", "--input", str(src), "--output", str(out), "--nr", "3", "--nphi", "8",
                     *flags]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] != outputs[2]


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


def test_muntz_seq_prints_every_row(capsys):
    assert main(["muntz", "--seq", "1/3,2,9/4"]) == 0
    assert capsys.readouterr().out == (
        "L_0: 1*x^1/3\n"
        "L_1: -1*x^1/3 2*x^2\n"
        "L_2: 40/23*x^1/3 -40*x^2 903/23*x^9/4\n"
        "A[0]: 3/5\n"
        "A[1]: 3/10 1/10\n"
        "A[2]: 12/43 92/903 46/9933\n"
        "R[0]: 5/3\n"
        "R[1]: -5 10\n"
        "R[2]: 220/23 -220 9933/46\n"
    )


# printed when the Muntz rows were built apart from R, so the one row pass is checked against them
@pytest.mark.parametrize("seq, want", [
    ("-1/4,1,5/2,7",
     "L_0: 1*x^-1/4\n"
     "L_1: -2/5*x^-1/4 7/5*x^1\n"
     "L_2: 14/55*x^-1/4 -14/5*x^1 39/11*x^5/2\n"
     "L_3: -182/1595*x^-1/4 21/10*x^1 -52/11*x^5/2 217/58*x^7\n"
     "A[0]: 2\n"
     "A[1]: 4/7 5/21\n"
     "A[2]: 4/13 22/117 11/234\n"
     "A[3]: 4/31 29/279 116/1953 58/3255\n"
     "R[0]: 1/2\n"
     "R[1]: -6/5 21/5\n"
     "R[2]: 84/55 -84/5 234/11\n"
     "R[3]: -546/319 63/2 -780/11 3255/58\n"),
    ("0,1,2,3,4,5",
     "L_0: 1*x^0\n"
     "L_1: -1*x^0 2*x^1\n"
     "L_2: 1*x^0 -6*x^1 6*x^2\n"
     "L_3: -1*x^0 12*x^1 -30*x^2 20*x^3\n"
     "L_4: 1*x^0 -20*x^1 90*x^2 -140*x^3 70*x^4\n"
     "L_5: -1*x^0 30*x^1 -210*x^2 560*x^3 -630*x^4 252*x^5\n"
     "A[0]: 1\n"
     "A[1]: 1/2 1/6\n"
     "A[2]: 1/3 1/6 1/30\n"
     "A[3]: 1/4 3/20 1/20 1/140\n"
     "A[4]: 1/5 2/15 2/35 1/70 1/630\n"
     "A[5]: 1/6 5/42 5/84 5/252 1/252 1/2772\n"
     "R[0]: 1\n"
     "R[1]: -3 6\n"
     "R[2]: 5 -30 30\n"
     "R[3]: -7 84 -210 140\n"
     "R[4]: 9 -180 810 -1260 630\n"
     "R[5]: -11 330 -2310 6160 -6930 2772\n"),
    ("3/2", "L_0: 1*x^3/2\nA[0]: 1/4\nR[0]: 4\n"),
])
def test_muntz_seq_prints_the_pinned_tables(capsys, seq, want):
    assert main(["muntz", "--seq", seq]) == 0
    assert capsys.readouterr() == (want, "")


def test_muntz_seq_rows_match_build_muntz(capsys):
    seq = eitdisk.ExponentSequence(Fraction(3 * i + 1, 4) for i in range(12))
    assert main(["muntz", "--seq", ",".join(str(x) for x in seq)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for n in range(len(seq)):
        poly = eitdisk.build_muntz(seq, n)
        assert lines[n] == f"L_{n}: " + " ".join(
            f"{c}*x^{e}" for e, c in zip(poly.exponents, poly.coefficients))


def test_muntz_seq_with_a_negative_first_exponent_takes_either_form(capsys):
    assert main(["muntz", "--seq", "-1/3,2"]) == 0
    spaced = capsys.readouterr()
    assert main(["muntz", "--seq=-1/3,2"]) == 0
    joined = capsys.readouterr()
    assert spaced.out == joined.out
    assert spaced.out.startswith("L_0: 1*x^-1/3\n")
    assert spaced.err == joined.err == ""


def test_usage_errors_and_help_return_their_exit_code(capsys):
    assert main(["forward"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: eitdisk forward: the following arguments are required: --input, --output\n"
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: eitdisk ") and err == ""


def test_muntz_rejects_bad_sequence(capsys):
    assert main(["muntz", "--seq", "1/2,apple"]) == 2
    assert "bad exponent" in capsys.readouterr().err


def test_muntz_inadmissible_sequence_prints_nothing(capsys):
    assert main(["muntz", "--seq=-1/2,3,1/3,7/2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "outside L^2" in err


def test_muntz_empty_seq_is_a_bad_exponent_list(capsys):
    assert main(["muntz", "--seq", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad exponent list") and err.count("\n") == 1


_FULL_HELP = """\
usage: eitdisk [-h]
               {forward,invert,roundtrip,validate,eval,half-invert,arc-invert,muntz}
               ...

Command-line interface. Exit codes: 0 success, 1 tolerance failure in
roundtrip, 2 parse/usage problems, 3 kind or shape mismatches, 4 structurally
inconsistent data. All outputs are deterministic: fixed 17-significant-digit
float formatting and fixed iteration orders.

positional arguments:
  {forward,invert,roundtrip,validate,eval,half-invert,arc-invert,muntz}
    forward             assemble boundary-data matrices from a field
    invert              reconstruct a field from boundary-data matrices
    roundtrip           forward then invert; report coefficient error
    validate            check structural identities of a matrix set
    eval                sample a field on a polar grid as CSV
    half-invert         invert half-disk sine-mode data
    arc-invert          invert arc data via conformal transplantation
    muntz               print exact basis coefficient tables

options:
  -h, --help            show this help message and exit
"""

_FORWARD_HELP = """\
usage: eitdisk forward [-h] --input INPUT --output OUTPUT [--nmax NMAX]
                       [--quad-r QUAD_R] [--quad-phi QUAD_PHI] [--oracle]

options:
  -h, --help           show this help message and exit
  --input INPUT        input JSON path
  --output OUTPUT      output path
  --nmax NMAX          max mode frequency
  --quad-r QUAD_R      radial quadrature order
  --quad-phi QUAD_PHI  angular quadrature order
  --oracle             also write a quadrature-oracle comparison report
"""


@pytest.mark.parametrize("argv, code, out, err", [
    ([], 2, "", "error: eitdisk: the following arguments are required: command\n"),
    (["nosuch"], 2, "", "error: eitdisk: argument command: invalid choice: 'nosuch' (choose from "
     "'forward', 'invert', 'roundtrip', 'validate', 'eval', 'half-invert', 'arc-invert', 'muntz')\n"),
    (["--help"], 0, _FULL_HELP, ""),
    (["forward", "--help"], 0, _FORWARD_HELP, ""),
    (["forward"], 2, "", "error: eitdisk forward: the following arguments are required: --input, --output\n"),
    (["forward", "--input", "a", "--output", "b", "--bogus"], 2, "",
     "error: eitdisk: unrecognized arguments: --bogus\n"),
], ids=["no-arguments", "unknown-command", "help", "forward-help", "forward-missing", "forward-bogus"])
def test_help_and_usage_error_texts_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


def _dtn_with_origin(tmp_path, field_file, origin):
    dtn = tmp_path / "dtn.json"
    assert main(["forward", "--input", str(field_file), "--output", str(dtn), "--nmax", "2"]) == 0
    doc = json.loads(dtn.read_text(encoding="utf-8"))
    doc["index_origin"]["cc"] = origin
    dtn.write_text(json.dumps(doc), encoding="utf-8")
    return str(dtn)


@pytest.mark.parametrize("origin", [[True, 1.0], [1, 1.0], [1, "1"], [1, None]])
def test_index_origin_entries_must_be_json_integers(tmp_path, field_file, capsys, origin):
    dtn = _dtn_with_origin(tmp_path, field_file, origin)
    capsys.readouterr()
    out_path = tmp_path / "rec.json"
    for argv in (["validate", "--input", dtn], ["invert", "--input", dtn, "--output", str(out_path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: index_origin entry of 'cc' must be an integer") and err.count("\n") == 1
    assert not out_path.exists()


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


def test_radial_power_beyond_double_range_evaluates_at_its_limit(tmp_path, capsys):
    # r**p at its limit: 0 below r = 1, 1 at r = 1; the exact forward map keeps the power
    field = tmp_path / "field.json"
    field.write_text('{"kind":"conductivity","cos":{"0":[[1%s,1.0]]},"sin":{}}' % ("0" * 400), encoding="utf-8")
    grid = tmp_path / "grid.csv"
    assert main(["eval", "--input", str(field), "--output", str(grid), "--nr", "2", "--nphi", "2"]) == 0
    rows = [line.split(",") for line in grid.read_text(encoding="utf-8").splitlines()[1:]]
    assert [float(x) for x, _, _ in rows] == [0.5, -0.5, 1.0, -1.0]
    assert [float(v) for _, _, v in rows] == [0.0, 0.0, 1.0, 1.0]
    assert main(["forward", "--oracle", "--input", str(field), "--output", str(tmp_path / "dtn.json"),
                 "--nmax", "3"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, code, out", [
    ("forward", 2, ""),
    ("roundtrip", 0, "max coefficient error: 0\n"),  # the exact round trip reads no float block
])
def test_entry_beyond_double_range_fails_only_where_a_float_block_is_read(tmp_path, capsys, command, code, out):
    dtn = tmp_path / "dtn.json"
    argv = [command, "--input", _raw_field_file(tmp_path, "1.7e308"), "--nmax", "3"]
    if command == "forward":
        argv += ["--output", str(dtn)]
    assert main(argv) == code
    got, err = capsys.readouterr()
    assert got == out
    assert err.count("\n") == (code != 0) and ("range of a double" in err) == (code != 0)
    assert not dtn.exists()


@pytest.mark.parametrize("command, text, message", [
    ("eval", '{"kind":"conductivity","cos":{"0":[[0,"1.5"]]},"sin":{}}', "not a number"),
    ("eval", '{"kind":"conductivity","cos":{"1":[[1,1.0]],"01":[[1,2.0]]},"sin":{}}', "angular order key '01'"),
    ("eval", '{"kind":"conductivity","cos":{"0":[[0,1.0]],"0":[[0,2.0]]},"sin":{}}', "key '0' appears twice"),
    ("arc-invert", '{"alpha":1%s,"N":2,"data":[[1.0,0.0],[0.0,1.0]]}' % ("0" * 400), "range of a double"),
    ("half-invert", '{"N":2.0,"data":[[1.0,0.0],[0.0,1.0]]}', "'N' must be an integer"),
], ids=["string-value", "aliased-keys", "repeated-key", "huge-alpha", "float-N"])
def test_malformed_documents_exit_2_with_one_error_line(tmp_path, capsys, command, text, message):
    src = tmp_path / "in.json"
    src.write_text(text, encoding="utf-8")
    argv = [command, "--input", str(src), "--output", str(tmp_path / "out.csv"), "--nr", "2", "--nphi", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


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
    return _set(doc, path, copy.deepcopy(rng.choice(_ODD_VALUES)))  # a later damage may change it in place


def test_fuzzed_documents_exit_with_a_documented_code(tmp_path, capsys):
    rng = random.Random(20261018)
    bases = _fuzz_documents()
    src, out = tmp_path / "in.json", tmp_path / "out.dat"
    failures = []
    odd_values = repr(_ODD_VALUES)
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
    assert repr(_ODD_VALUES) == odd_values  # damaged documents hold copies of the atoms, never the atoms


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
    ["muntz", "--seq", ",".join(str(i) for i in range(65))],
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


def test_roundtrip_checks_tol_before_the_assembly(field_file, capsys, monkeypatch):
    def assemble(*args):
        raise AssertionError("roundtrip assembled before checking --tol")

    monkeypatch.setattr(eitdisk.cli, "_assemble", assemble)
    capsys.readouterr()
    assert main(["roundtrip", "--input", str(field_file), "--tol", "nan", "--nmax", "32"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: tolerance must be >= 0") and err.count("\n") == 1


# ------------------------------------------------------------ one parser per process

def _write_cli_inputs(folder):
    field = FourierRadialField(
        CONDUCTIVITY,
        {0: RadialProfile(((0, 1.0), (2, -0.25))), 1: RadialProfile(((1, 0.5),))},
        {2: RadialProfile(((2, 0.75),))},
    )
    alpha = math.pi / 3
    cmap = ConformalMap(ArcSpec(alpha))
    (folder / "field.json").write_text(eio.dumps(eio.field_to_dict(field)), encoding="utf-8")
    (folder / "half.json").write_text(eio.dumps(eio.arc_data_to_dict(half_disk_data(field, 4))),
                                      encoding="utf-8")
    arc = make_arc_data(lambda rho, theta: 1.0 + np.asarray(rho) ** 2 * np.cos(theta), cmap, 4)
    (folder / "arc.json").write_text(eio.dumps(eio.arc_data_to_dict(arc, alpha=alpha)),
                                     encoding="utf-8")


_ONE_PROCESS_RUNS = (
    ["forward", "--input", "field.json", "--nmax", "3"],  # usage error: no --output
    ["forward", "--input", "field.json", "--output", "dtn.json", "--nmax", "4",
     "--oracle", "--quad-r", "16", "--quad-phi", "64"],
    ["half-invert", "--input", "half.json", "--output", "half.csv", "--nr", "3", "--nphi", "5"],
    ["arc-invert", "--input", "arc.json", "--output", "arc.csv", "--nr", "2", "--nphi", "4",
     "--map-debug"],
)


def test_one_process_runs_match_separate_processes(tmp_path, monkeypatch, capsys):
    together, apart = tmp_path / "together", tmp_path / "apart"
    for folder in (together, apart):
        folder.mkdir()
        _write_cli_inputs(folder)
    monkeypatch.chdir(together)
    got = []
    for argv in _ONE_PROCESS_RUNS:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))

    src = str(pathlib.Path(eitdisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    want = []
    for argv in _ONE_PROCESS_RUNS:
        proc = subprocess.run([sys.executable, "-m", "eitdisk", *argv], cwd=apart, env=env,
                              capture_output=True, text=True, timeout=120)
        want.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in got] == [2, 0, 0, 0]
    assert got == want
    names = sorted(p.name for p in apart.iterdir())
    assert names == sorted(p.name for p in together.iterdir())
    assert "arc.csv.mapdebug.csv" in names and "dtn.oracle.json" in names
    for name in names:
        assert (together / name).read_bytes() == (apart / name).read_bytes(), name
    assert eitdisk.cli._build_parser() is eitdisk.cli._build_parser()  # built once and reused


@pytest.mark.parametrize("command,flag", [
    ("forward", "--quad-r"), ("forward", "--quad-phi"), ("eval", "--nr"), ("eval", "--nphi"),
    ("half-invert", "--nr"), ("half-invert", "--nphi"), ("arc-invert", "--nr"), ("arc-invert", "--nphi"),
])
def test_grid_above_cap_exits_2_before_reading_the_input(tmp_path, capsys, command, flag):
    size = MAX_GRID + 1
    argv = [command, "--input", str(tmp_path / "missing.json"), "--output", str(tmp_path / "out"),
            flag, str(size)]
    if command == "forward":
        argv += ["--nmax", "2", "--oracle"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} {size} is above the cap of {MAX_GRID}\n"
    assert not (tmp_path / "out").exists()
