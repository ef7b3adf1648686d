"""Seeded workloads of the eitdisk benchmark: inputs, cases and gates.

Each workload factory turns a seed into a fixed list of cases.  Everything a
case reads (fields, JSON documents, references) is built by ``prepare``, once
per run, or by the factory, in each measuring process, before any timed
region; no program code that could fill a cache runs in a measuring process
before its first case.  The program receives only those inputs, never the
seed.  A case's ``run`` is the timed work and returns what
the program produced; its ``check`` runs outside the timed region and
returns the failed gates.

Why these workloads:

- disk_exact: the exact solver tables (muntz.inverse_matrix) dominate
  reconstruct, with no evaluation and no quadrature; this is where cached
  closed-form tables must show a gain.
- disk_measured: float documents read back and reconstructed on the lifted
  path, then sampled pointwise; evaluation dominates and the solver is about
  a tenth, so faster evaluation shows here and faster tables only a little.
- partial_oracle: the quadrature oracles behind half-disk, arc and forward
  data dominate, and it is the only workload through conformal and cli.
"""

from __future__ import annotations

import contextlib
import io as pyio
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import eitdisk as ed
import eitdisk.cli
import eitdisk.conformal
import eitdisk.io

HERE = Path(__file__).resolve().parent
SRC = Path(ed.__file__).resolve().parents[1]
CLI_GRID = (24, 64)          # eitdisk's default --nr and --nphi
MEASURED_TOL = 1e-6          # disk_measured grid vs exact reference
EXTRA_TOL = 1e-9             # disk_measured extra Hankel moments vs exact data
HALF_DISK_TOL = 1e-6         # acceptance criterion 7
ARC_TOL = 1e-3               # acceptance criterion 9
ARC_INTERIOR = (0.05, 0.95)  # criterion 9's sample radii
ORACLE_TOL = 1e-8            # acceptance criterion 3


@dataclass
class Case:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


@dataclass
class Workload:
    name: str
    cases: list
    dominant: tuple          # spans predicted to dominate the traced self time


def output_bytes(outputs):
    """The program's serialized outputs of one case: text it returned, files it wrote."""
    out = {}
    for key, value in sorted(outputs.items()):
        if isinstance(value, str):
            out[key] = value.encode("utf-8")
        elif isinstance(value, os.PathLike):
            with open(value, "rb") as fh:
                out[key] = fh.read()
    return out


# generators ---------------------------------------------------------------------

def _rational(rng):
    return Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))


def span_field(kind, rng, N):
    """Field inside the recoverable span at truncation N (criterion 4's generator).

    Order k carries the radial powers 2l + k, l < top - k, where top is N for
    the conductivity kind and N + 1 for the potential kind.
    """
    top = N if kind == ed.CONDUCTIVITY else N + 1
    cos, sin = {}, {}
    for k in range(top):
        cos[k] = ed.RadialProfile(tuple((2 * l + k, _rational(rng)) for l in range(top - k)))
        if k >= 1:
            sin[k] = ed.RadialProfile(tuple((2 * l + k, _rational(rng)) for l in range(top - k)))
    return ed.FourierRadialField(kind, cos, sin)


def wide_field(kind, rng, N):
    """Field outside the span: every order up to N, radial powers up to 3N."""
    def profile():
        powers = rng.choice(3 * N + 1, size=int(rng.integers(3, 7)), replace=False)
        return ed.RadialProfile(tuple((int(p), float(rng.uniform(-1.0, 1.0))) for p in sorted(powers)))

    cos = {k: profile() for k in range(N + 1)}
    sin = {k: profile() for k in range(1, N + 1)}
    return ed.FourierRadialField(kind, cos, sin)


def half_disk_field(rng, N):
    """Cosine field in the half-disk span at N (criterion 7's generator)."""
    cos = {k: ed.RadialProfile(tuple((2 * l + k, float(rng.uniform(-1.0, 1.0))) for l in range(N - k)))
           for k in range(N)}
    return ed.FourierRadialField(ed.CONDUCTIVITY, cos, {})


def polynomial_field(kind, rng):
    """Angular order <= 4, radial degree <= 4 (criterion 3's generator)."""
    cos, sin = {}, {}
    for k in range(5):
        powers = rng.choice(5, size=rng.integers(1, 4), replace=False)
        cos[k] = ed.RadialProfile(tuple((int(p), float(rng.uniform(-1.0, 1.0))) for p in sorted(powers)))
        if k >= 1 and rng.random() < 0.8:
            powers = rng.choice(5, size=rng.integers(1, 3), replace=False)
            sin[k] = ed.RadialProfile(tuple((int(p), float(rng.uniform(-1.0, 1.0))) for p in sorted(powers)))
    return ed.FourierRadialField(kind, cos, sin)


def eval_polar(field, r, phi):
    """Reference evaluation of a field at polar points, independent of eitdisk."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(np.broadcast(r, phi).shape)
    for trig, table in ((np.cos, field.cos), (np.sin, field.sin)):
        for k, prof in table.items():
            radial = sum(float(v) * r**p for p, v in prof.terms)
            out = out + radial * trig(k * phi)
    return out


def exact_grid(field, nr, nphi):
    """Field on the CLI grid with each radial profile summed exactly at r = i/nr."""
    radii = [Fraction(i, nr) for i in range(1, nr + 1)]
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    out = np.zeros((nr, nphi))
    for trig, table in ((np.cos, field.cos), (np.sin, field.sin)):
        for k, prof in table.items():
            radial = [float(sum((Fraction(v) * r**p for p, v in prof.terms), Fraction(0))) for r in radii]
            out += np.outer(radial, trig(k * phi))
    return out


def _read_csv(data):
    return np.loadtxt(pyio.StringIO(data.decode("utf-8") if isinstance(data, bytes) else data),
                      delimiter=",", skiprows=1, ndmin=2)


def _forward(field, N):
    if field.kind == ed.CONDUCTIVITY:
        return ed.conductivity_dtn(field, N)
    return ed.schroedinger_dtn(field, N)


def _terms(field):
    return ({k: dict(p.terms) for k, p in field.cos.items()},
            {k: dict(p.terms) for k, p in field.sin.items()})


# disk_exact ---------------------------------------------------------------------

# N=32 (5 s a case) would leave too few fresh-process passes in a run to
# steady the medians; N=24 still spends most of reconstruct in the tables.
EXACT_SHAPES = tuple((kind, N) for N in (24, 20, 16, 8, 4) for kind in (ed.POTENTIAL, ed.CONDUCTIVITY))


def _exact_case(field, N):
    def run():
        eio = ed.io
        mset = _forward(field, N)
        dtn_doc = eio.dumps(eio.dtn_to_dict(mset))
        report = ed.validate(mset)
        rec = ed.reconstruct(mset)
        back = rec.to_field()
        return {
            "dtn.json": dtn_doc,
            "reconstruction.json": eio.dumps(eio.reconstruction_to_dict(rec)),
            "field.json": eio.dumps(eio.field_to_dict(back)),
            "report": report,
            "field": back,
        }

    source = _terms(field)

    def check(out):
        failed = []
        if not out["report"].passed:
            failed.append(f"validate: max deviation {out['report'].max_deviation!r}")
        if _terms(out["field"]) != source:
            failed.append("exact roundtrip: recovered monomial coefficients differ from the source")
        return failed

    return Case(f"{field.kind} N={N}", run, check)


def disk_exact(seed, workdir):
    rng = np.random.default_rng(seed)
    cases = [_exact_case(span_field(kind, rng, N), N) for kind, N in EXACT_SHAPES]
    return Workload("disk_exact", cases, ("muntz.inverse_matrix",))


# disk_measured ------------------------------------------------------------------

MEASURED_N = 12
MEASURED_KINDS = (ed.POTENTIAL, ed.CONDUCTIVITY) * 2


def write_measured_inputs(seed, workdir):
    """Write the float documents and exact references of every disk_measured case.

    Runs in a fresh interpreter (see ``prepare``) because building the
    references runs the exact solver, which would fill any lazily built table
    of the measuring process before its first case.
    """
    rng = np.random.default_rng(seed)
    for i, kind in enumerate(MEASURED_KINDS):
        field = wide_field(kind, rng, MEASURED_N)
        mset = _forward(field, MEASURED_N)
        _write(Path(workdir) / f"dtn{i}.json", ed.io.dumps(ed.io.dtn_to_dict(mset)))
        extra = ed.extra_hankel_moments(mset) if kind == ed.POTENTIAL else {}
        reference = {
            "grid": exact_grid(ed.reconstruct(mset).to_field(), *CLI_GRID).tolist(),
            "extra": [[par, l, v] for par, table in extra.items() for l, v in sorted(table.items())],
        }
        _write(Path(workdir) / f"ref{i}.json", json.dumps(reference))


def _measured_case(kind, path, reference):
    potential = kind == ed.POTENTIAL
    grid = np.array(reference["grid"])
    nr, nphi = CLI_GRID
    points = [(i / nr, 2.0 * math.pi * j / nphi) for i in range(1, nr + 1) for j in range(nphi)]

    def run():
        eio = ed.io
        loaded = eio.dtn_from_dict(eio.load_json(str(path)))
        report = ed.validate(loaded)
        rec = ed.reconstruct(loaded, arithmetic="rational")
        extra = ed.extra_hankel_moments(loaded) if potential else None
        rec_doc = eio.dumps(eio.reconstruction_to_dict(rec))
        rows = np.array([(r * math.cos(p), r * math.sin(p), rec.evaluate(r, p)) for r, p in points])
        return {"reconstruction.json": rec_doc, "grid.csv": eio.grid_to_csv(rows),
                "report": report, "extra": extra}

    def check(out):
        failed = []
        if not out["report"].passed:
            failed.append(f"validate (float path): max deviation {out['report'].max_deviation!r}")
        values = _read_csv(out["grid.csv"])[:, 2].reshape(nr, nphi)
        err = float(np.max(np.abs(values - grid)))
        if not err <= MEASURED_TOL:
            failed.append(f"grid vs exact reference: {err!r} > {MEASURED_TOL}")
        if potential:
            err = max(abs(out["extra"][par][l] - v) for par, l, v in reference["extra"])
            if not err <= EXTRA_TOL:
                failed.append(f"extra Hankel moments vs exact data: {err!r} > {EXTRA_TOL}")
        return failed

    return Case(f"{kind} N={MEASURED_N} measured", run, check)


def disk_measured(seed, workdir):
    """Cases over the documents ``prepare`` wrote to ``workdir`` for ``seed``."""
    cases = []
    for i, kind in enumerate(MEASURED_KINDS):
        with open(workdir / f"ref{i}.json", encoding="utf-8") as fh:
            reference = json.load(fh)
        cases.append(_measured_case(kind, workdir / f"dtn{i}.json", reference))
    return Workload("disk_measured", cases, ("inverse.evaluate",))


# partial_oracle -----------------------------------------------------------------

PARTIAL_N = 8
PARTIAL_SHAPES = ((math.pi / 6, ed.POTENTIAL), (math.pi / 4, ed.CONDUCTIVITY),
                  (math.pi / 3, ed.POTENTIAL))
ALPHA_NAMES = {math.pi / 6: "pi/6", math.pi / 4: "pi/4", math.pi / 3: "pi/3"}


def _partial_case(g, alpha, poly, folder):
    folder.mkdir(parents=True, exist_ok=True)
    paths = {name: folder / name for name in
             ("half.json", "half.csv", "arc.json", "arc.csv", "field.json", "dtn.json", "dtn.oracle.json")}
    _write(paths["field.json"], ed.io.dumps(ed.io.field_to_dict(poly)))
    cmap = ed.ConformalMap(ed.ArcSpec(alpha))
    # bound before any tracing, so the benchmark's own calls in gamma and in
    # the gate stay out of the conformal.psi_inverse count
    psi_inverse = ed.conformal.psi_inverse

    def gamma(rho, theta):
        # criterion 9: gamma = g o psi^{-1}
        z = psi_inverse(cmap, np.asarray(rho) * np.exp(1j * np.asarray(theta)))
        return eval_polar(g, np.abs(z), np.angle(z))

    def run():
        eio = ed.io
        args = {name: str(path) for name, path in paths.items()}
        stdout = pyio.StringIO()
        with contextlib.redirect_stdout(stdout):
            half = ed.half_disk_data(g, PARTIAL_N)
            _write(args["half.json"], eio.dumps(eio.arc_data_to_dict(half)))
            code_half = ed.cli.main(["half-invert", "--input", args["half.json"], "--output", args["half.csv"]])
            arc = ed.arc_data(gamma, cmap, PARTIAL_N)
            _write(args["arc.json"], eio.dumps(eio.arc_data_to_dict(arc, alpha)))
            code_arc = ed.cli.main(["arc-invert", "--input", args["arc.json"], "--output", args["arc.csv"]])
            code_fwd = ed.cli.main(["forward", "--oracle", "--nmax", str(PARTIAL_N),
                                    "--input", args["field.json"], "--output", args["dtn.json"]])
        out = {name: path for name, path in paths.items() if name != "field.json"}
        out["stdout"] = stdout.getvalue()
        out["exit_codes"] = (code_half, code_arc, code_fwd)
        return out

    def check(out):
        failed = []
        for cmd, code in zip(("half-invert", "arc-invert", "forward --oracle"), out["exit_codes"]):
            if code != 0:
                failed.append(f"{cmd}: exit code {code}")
        if failed:
            return failed
        files = output_bytes(out)
        half = _read_csv(files["half.csv"])
        r = np.hypot(half[:, 0], half[:, 1])
        phi = np.mod(np.arctan2(half[:, 1], half[:, 0]), 2.0 * math.pi)
        err = float(np.max(np.abs(half[:, 2] - eval_polar(g, r, phi))))
        if not err <= HALF_DISK_TOL:
            failed.append(f"half-disk grid vs source: {err!r} > {HALF_DISK_TOL}")
        arc = _read_csv(files["arc.csv"])
        r = np.hypot(arc[:, 0], arc[:, 1])
        inner = (r >= ARC_INTERIOR[0]) & (r <= ARC_INTERIOR[1])
        z = psi_inverse(cmap, arc[inner, 0] + 1j * arc[inner, 1])
        err = float(np.max(np.abs(arc[inner, 2] - eval_polar(g, np.abs(z), np.angle(z)))))
        if not err <= ARC_TOL:
            failed.append(f"arc interior values vs source: {err!r} > {ARC_TOL}")
        dev = json.loads(files["dtn.oracle.json"])["max_scaled_deviation"]
        if not dev <= ORACLE_TOL:
            failed.append(f"forward oracle: max scaled deviation {dev!r} > {ORACLE_TOL}")
        return failed

    return Case(f"alpha={ALPHA_NAMES[alpha]} forward={poly.kind}", run, check)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def partial_oracle(seed, workdir):
    rng = np.random.default_rng(seed)
    cases = [_partial_case(half_disk_field(rng, PARTIAL_N), alpha, polynomial_field(kind, rng),
                           workdir / f"case{i}")
             for i, (alpha, kind) in enumerate(PARTIAL_SHAPES)]
    return Workload("partial_oracle", cases, (
        "forward.energy_oracle", "partial.half_disk_forward_oracle", "partial.arc_forward_oracle"))


WORKLOADS = {"disk_exact": disk_exact, "disk_measured": disk_measured,
             "partial_oracle": partial_oracle}


def prepare(name, seed, workdir):
    """Write the inputs a workload reads from ``workdir``; once per run, before any timing."""
    if name == "disk_measured":
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                "workloads.write_measured_inputs(int(sys.argv[3]), sys.argv[4])")
        subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE), str(seed), str(workdir)],
                       check=True, timeout=120)
