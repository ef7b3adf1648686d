"""Command-line interface.

Exit codes: 0 success, 1 tolerance failure in roundtrip, 2 parse/usage
problems, 3 kind or shape mismatches, 4 structurally inconsistent data.
All outputs are deterministic: fixed 17-significant-digit float formatting
and fixed iteration orders.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import io
from .conformal import ArcSpec, ConformalMap, _psi_array
from .errors import (
    DomainError,
    FormatError,
    InconsistentDataError,
    KindMismatchError,
    RangeError,
    ShapeError,
)
from .fields import CONDUCTIVITY, sample_grid
from .forward import BLOCK_NAMES, conductivity_dtn, oracle_dtn, schroedinger_dtn
from .inverse import _check_tol, extra_hankel_moments, reconstruct, validate
from .muntz import ExponentSequence, build_weighted_family, gram_matrix, inverse_matrix
from .partial import arc_invert, half_disk_invert
from .quadrature import QuadratureSpec

__all__ = ["main"]

# Largest --nmax of forward/roundtrip and --nmax/--k of muntz: the exact
# assembly and solve cost grows about as N^4.
MAX_MODES = 64
# Largest --quad-r/--quad-phi of forward and --nr/--nphi of eval, half-invert
# and arc-invert: the Gauss-Legendre rule diagonalizes an n x n matrix, and a
# grid holds one node per pair.
MAX_GRID = 1024


def main(argv=None) -> int:
    try:
        argv = _attach_seq_value(sys.argv[1:] if argv is None else argv)
        args = _build_parser().parse_args(argv)
        for flag in ("quad_r", "quad_phi", "nr", "nphi"):  # before any input is read
            if hasattr(args, flag):
                _check_cap(getattr(args, flag), "--" + flag.replace("_", "-"), MAX_GRID)
        return args.func(args)
    except SystemExit as exc:  # --help: returned, so library callers get the code
        return exc.code
    except InconsistentDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in exc.report.lines():
            print(line, file=sys.stderr)
        return 4
    except (KindMismatchError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, DomainError, RangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _attach_seq_value(argv) -> list:
    """``--seq V`` as ``--seq=V`` when V starts with a minus and a digit: argparse reads it as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--seq" and re.match(r"-[0-9]", arg):
            out[-1] = f"--seq={arg}"
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one FormatError line (exit 2), not argparse's usage text and exit
        raise FormatError(f"{self.prog}: {message}")


@functools.cache  # once per process: parse_args leaves the parser unchanged
def _build_parser():
    """The parser with one subparser per entry of ``_COMMANDS``."""
    parser = _Parser(prog="eitdisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _check_paths(args, *suffixes):
    """A FormatError if the output, or a sibling written with one of ``suffixes``, is the input file."""
    written = [args.output, *(_sibling(args.output, suffix) for suffix in suffixes if suffix)]
    if os.path.realpath(args.input) in map(os.path.realpath, written):
        raise FormatError("input and output paths must differ")


def _write(path, content):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _sibling(path, suffix):
    base = path[: -len(".json")] if path.endswith(".json") else path
    return base + suffix


def _cmd_forward(args) -> int:
    _check_paths(args, args.oracle and ".oracle.json")
    field = io.field_from_dict(io.load_json(args.input))
    mset = _assemble(field, args.nmax, "forward")
    _write(args.output, io.dumps(io.dtn_to_dict(mset)))
    if args.oracle:
        quad = QuadratureSpec(args.quad_r, args.quad_phi)
        report = _oracle_report(field, mset, quad)
        _write(_sibling(args.output, ".oracle.json"), io.dumps(report))
        print(f"oracle max scaled deviation: {io.format_float(report['max_scaled_deviation'])}")
    return 0


def _check_cap(value, flag, cap=MAX_MODES):
    if value > cap:
        raise DomainError(f"{flag} {value} is above the cap of {cap}")


def _assemble(field, nmax, command):
    if nmax is None:
        raise FormatError(f"--nmax is required for {command}")
    _check_cap(nmax, "--nmax")
    return (conductivity_dtn if field.kind == CONDUCTIVITY else schroedinger_dtn)(field, nmax)


def _oracle_report(field, mset, quad):
    oracle = oracle_dtn(field, mset.N, quad)
    report = {"quad": [quad.n_r, quad.n_phi], "blocks": {}}
    for name in BLOCK_NAMES:
        analytic, numeric = mset.block(name), oracle.block(name)
        # scale floor 1e-4 makes a 1e-8 scaled deviation equal an
        # absolute deviation of 1e-12 for near-zero entries
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        report["blocks"][name] = float(np.max(np.abs(analytic - numeric) / scale, initial=0.0))
    report["max_scaled_deviation"] = max(report["blocks"].values())
    return report


def _cmd_invert(args) -> int:
    _check_paths(args, ".field.json")
    mset = io.dtn_from_dict(io.load_json(args.input))
    arithmetic = "rational" if args.rational else "auto"
    rec = reconstruct(mset, N=args.nmax, tol=args.tol, reg_cap=args.reg_cap,
                      arithmetic=arithmetic)
    _write(args.output, io.dumps(io.reconstruction_to_dict(rec)))
    _write(_sibling(args.output, ".field.json"), io.dumps(io.field_to_dict(rec.to_field())))
    for k in sorted(rec.condition):
        values = " ".join(io.format_float(v) for v in rec.condition[k])
        print(f"condition k={k}: {values}")
    if mset.kind != CONDUCTIVITY:
        extra = extra_hankel_moments(mset)
        for parity in ("cos", "sin"):
            for l in sorted(extra[parity]):
                print(f"extra {parity} moment l={l}: {io.format_float(extra[parity][l])}")
    return 0


def _field_coefficients(field):
    return {(parity, k, p): v for parity, table in (("cos", field.cos), ("sin", field.sin))
            for k, prof in table.items() for p, v in prof._doubles()}


def _cmd_roundtrip(args) -> int:
    field = io.field_from_dict(io.load_json(args.input))
    _check_tol(args.tol)  # before the O(N^4) assembly
    mset = _assemble(field, args.nmax, "roundtrip")  # exact, so reconstruct solves it exactly
    rec = reconstruct(mset, tol=args.tol)
    original = _field_coefficients(field)
    recovered = _field_coefficients(rec.to_field())
    worst = 0.0
    for key in sorted(set(original) | set(recovered)):
        worst = max(worst, abs(original.get(key, 0.0) - recovered.get(key, 0.0)))
    print(f"max coefficient error: {io.format_float(worst)}")
    return 0 if worst <= args.tol else 1


def _cmd_validate(args) -> int:
    mset = io.dtn_from_dict(io.load_json(args.input))
    report = validate(mset, tol=args.tol)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 4


def _cmd_eval(args) -> int:
    _check_paths(args)
    field = io.field_from_dict(io.load_json(args.input))
    _write(args.output, io.grid_to_csv(sample_grid(field, args.nr, args.nphi)))
    return 0


def _cmd_half_invert(args) -> int:
    _check_paths(args)
    data, _ = io.arc_data_from_dict(io.load_json(args.input))
    rec = half_disk_invert(data, N=args.nmax, tol=args.tol, reg_cap=args.reg_cap)
    _write(args.output, io.grid_to_csv(sample_grid(rec, args.nr, args.nphi, math.pi)))
    return 0


def _cmd_arc_invert(args) -> int:
    _check_paths(args, args.map_debug and ".mapdebug.csv")
    data, alpha = io.arc_data_from_dict(io.load_json(args.input))
    if args.alpha is not None:
        alpha = args.alpha
    if alpha is None:
        raise FormatError("arc data without 'alpha'; pass --alpha")
    cmap = ConformalMap(ArcSpec(alpha))
    rec = arc_invert(data, cmap, N=args.nmax, tol=args.tol, reg_cap=args.reg_cap)
    _write(args.output, io.grid_to_csv(sample_grid(rec, args.nr, args.nphi)))
    if args.map_debug:
        _write(_sibling(args.output, ".mapdebug.csv"), _map_debug_csv(cmap))
    return 0


def _map_debug_csv(cmap, count=64):
    theta = math.pi * np.arange(count) / (count - 1)
    z = np.exp(1j * theta)
    w = _psi_array(cmap, z)
    return io._csv("re_z,im_z,re_psi,im_psi", np.column_stack([z.real, z.imag, w.real, w.imag]))


def _cmd_muntz(args) -> int:
    _check_cap(args.nmax, "--nmax")
    _check_cap(args.k, "--k")
    if args.seq is not None:
        try:
            seq = ExponentSequence(Fraction(part.strip()) for part in args.seq.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad exponent list: {exc}") from exc
        size = len(seq)
        _check_cap(size, "--seq length")
        gram = gram_matrix(seq, size)  # admissibility is checked before anything is printed
        inv = inverse_matrix(seq, size)  # this module's binding: the benchmark's tracer patches it
        for n, (x, row) in enumerate(zip(seq.lambdas, inv.rows)):  # L_n = R[n] / (1 + 2 lambda_n)
            terms = " ".join(f"{c / (1 + 2 * x)}*x^{e}" for e, c in zip(seq.lambdas, row))
            print(f"L_{n}: {terms}")
        for label, mat in (("A", gram), ("R", inv)):
            for i, row in enumerate(mat.rows):
                print(f"{label}[{i}]: " + " ".join(str(v) for v in row))
        return 0
    family = build_weighted_family(args.k, args.nmax)
    for n, row in enumerate(family.rows):
        terms = " ".join(f"{c}*x^{2 * l + args.k}" for l, c in enumerate(row))
        print(f"LM^{args.k}_{n}: {terms}")
    return 0


_INPUT = ("--input", dict(required=True, help="input JSON path"))
_OUTPUT = ("--output", dict(required=True, help="output path"))
_NMAX = ("--nmax", dict(type=int, default=None, help="max mode frequency"))
_TOL = ("--tol", dict(type=float, default=1e-9, help="validation tolerance"))
_REG_CAP = ("--reg-cap", dict(type=int, default=None, help="drop coefficients with index above this cap"))
_RATIONAL = ("--rational", dict(action="store_true", help="exact rational arithmetic internally"))
_GRID = (("--nr", dict(type=int, default=24, help="radial grid levels")),
         ("--nphi", dict(type=int, default=64, help="angular grid count")))

# name -> (handler, help text, options in help order), after the handlers it names
_COMMANDS = {
    "forward": (_cmd_forward, "assemble boundary-data matrices from a field", (
        _INPUT, _OUTPUT, _NMAX,
        ("--quad-r", dict(type=int, default=64, help="radial quadrature order")),
        ("--quad-phi", dict(type=int, default=512, help="angular quadrature order")),
        ("--oracle", dict(action="store_true", help="also write a quadrature-oracle comparison report")))),
    "invert": (_cmd_invert, "reconstruct a field from boundary-data matrices",
               (_INPUT, _OUTPUT, _NMAX, _TOL, _REG_CAP, _RATIONAL)),
    "roundtrip": (_cmd_roundtrip, "forward then invert; report coefficient error",
                  (_INPUT, _NMAX, _TOL)),
    "validate": (_cmd_validate, "check structural identities of a matrix set", (_INPUT, _TOL)),
    "eval": (_cmd_eval, "sample a field on a polar grid as CSV", (_INPUT, _OUTPUT, *_GRID)),
    "half-invert": (_cmd_half_invert, "invert half-disk sine-mode data",
                    (_INPUT, _OUTPUT, _NMAX, _TOL, _REG_CAP, *_GRID)),
    "arc-invert": (_cmd_arc_invert, "invert arc data via conformal transplantation", (
        _INPUT, _OUTPUT, _NMAX, _TOL, _REG_CAP, *_GRID,
        ("--alpha", dict(type=float, default=None,
                         help="arc half-opening (overrides the value in the data file)")),
        ("--map-debug", dict(action="store_true", help="also write boundary images of the conformal map")))),
    "muntz": (_cmd_muntz, "print exact basis coefficient tables", (
        ("--k", dict(type=int, default=0, help="angular order of the weighted family")),
        ("--nmax", dict(type=int, default=6, help="largest index to print")),
        ("--seq", dict(type=str, default=None, help="comma-separated rational exponents for a custom sequence")))),
}


if __name__ == "__main__":
    sys.exit(main())
