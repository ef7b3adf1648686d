"""Seeded fuzzing of the command line: every damaged document or argument ends in a documented exit code.

Each run takes one of nine valid documents, damages it one to three times
(``test_cli._mutate``) and sometimes swaps one argument of the command, then
calls ``cli.main`` in process.  Exit codes are those of the ``cli`` docstring.
"""

import json
import math
import random

import pytest

from eitdisk import (
    CONDUCTIVITY,
    POTENTIAL,
    ArcSpec,
    ConformalMap,
    FourierRadialField,
    RadialProfile,
    arc_data,
    conductivity_dtn,
    half_disk_data,
    schroedinger_dtn,
)
from eitdisk import io as eio
from eitdisk.cli import main
from test_cli import _mutate

_COMMANDS = {
    "field": (
        ("forward", "--output", "{out}", "--nmax", "3"),
        ("forward", "--output", "{out}", "--nmax", "2", "--oracle", "--quad-r", "16", "--quad-phi", "64"),
        ("roundtrip", "--nmax", "3"),
        ("eval", "--output", "{out}", "--nr", "2", "--nphi", "3"),
    ),
    "dtn": (
        ("invert", "--output", "{out}"),
        ("invert", "--output", "{out}", "--rational", "--reg-cap", "1"),
        ("validate",),
    ),
    "arc": (
        ("half-invert", "--output", "{out}", "--nr", "2", "--nphi", "3"),
        ("arc-invert", "--output", "{out}", "--nr", "2", "--nphi", "3"),
    ),
}
# values an option may be swapped for: small enough that no run builds a large table or grid
_ODD_ARGUMENTS = ("-1", "0", "1", "65", "1025", "nan", "inf", "-inf", "1e400", "0.5", "x", "", "--nmax")
_EXTRA_FLAGS = (("--tol", "0"), ("--tol", "1e300"), ("--reg-cap", "0"), ("--alpha", "0.5"), ("--map-debug",),
                ("--rational",), ("--oracle",), ("--nmax", "1"), ("--bogus",))


def _documents():
    """Nine valid documents: three fields, three matrix sets and three half-disk or arc data sets."""
    cond = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),)), 1: RadialProfile(((1, 0.25), (3, -0.5)))},
                              {2: RadialProfile(((2, -0.5),))})
    pot = FourierRadialField(POTENTIAL, {0: RadialProfile(((0, 1.0), (2, 0.5)))}, {1: RadialProfile(((1, 0.25),))})
    cos_only = FourierRadialField(CONDUCTIVITY, {0: RadialProfile(((0, 1.0),)), 1: RadialProfile(((1, 0.5),))}, {})
    half = half_disk_data(cos_only, 3)
    return {
        "field": [eio.field_to_dict(f) for f in (cond, pot, cos_only)],
        "dtn": [eio.dtn_to_dict(conductivity_dtn(cond, 3)), eio.dtn_to_dict(schroedinger_dtn(pot, 2)),
                eio.dtn_to_dict(conductivity_dtn(cos_only, 2))],
        "arc": [eio.arc_data_to_dict(half, alpha=math.pi / 4), eio.arc_data_to_dict(half),
                eio.arc_data_to_dict(arc_data(cos_only, ConformalMap(ArcSpec(0.5)), 3), alpha=0.5)],
    }


def _swap_argument(args, rng):
    """Replace one option value (never the output path), drop an option, or add one."""
    values = [i for i, a in enumerate(args) if i and not a.startswith("--") and args[i - 1] != "--output"]
    how = rng.random()
    if values and how < 0.5:
        args[rng.choice(values)] = rng.choice(_ODD_ARGUMENTS)
    elif how < 0.75:
        options = [i for i, a in enumerate(args) if a.startswith("--") and a != "--output"]
        if options:
            i = rng.choice(options)
            del args[i: i + (2 if i + 1 < len(args) and not args[i + 1].startswith("--") else 1)]
    else:
        args.extend(rng.choice(_EXTRA_FLAGS))
    return args


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_fuzzed_runs_exit_with_a_documented_code(tmp_path, capsys, seed):
    rng = random.Random(seed)
    documents = _documents()
    src, out = tmp_path / "in.json", tmp_path / "out.dat"
    failures = []
    for case in range(500):
        doc_type = rng.choice(sorted(documents))
        command, *args = (a.format(out=out) for a in rng.choice(_COMMANDS[doc_type]))
        doc = json.loads(json.dumps(rng.choice(documents[doc_type])))
        for _ in range(rng.randint(1, 3)):  # copied, so no later damage reaches an atom _mutate shares
            doc = json.loads(json.dumps(_mutate(doc, rng)))
        if rng.random() < 0.25:
            args = _swap_argument(args, rng)
        text = json.dumps(doc)
        src.write_text(text, encoding="utf-8")
        argv = [command, "--input", str(src), *args]
        try:
            code = main(argv)
        except Exception as exc:  # an escaping exception is a traceback in a real run
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err.splitlines()
        if (code not in (0, 1, 2, 3, 4) or (code in (2, 3) and (len(err) != 1 or not err[0].startswith("error: ")))
                or (code == 0 and err)):
            failures.append(f"case {case}: {argv[:1] + argv[3:]} {text[:160]} -> {code!r}, stderr {err[:2]}")
    assert not failures, "\n".join(failures)
