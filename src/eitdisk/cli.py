"""Command-line interface.

Exit codes: 0 success, 1 tolerance failure in roundtrip, 2 parse/usage
problems, 3 kind or shape mismatches, 4 structurally inconsistent data.
All outputs are deterministic: fixed 17-significant-digit float formatting
and fixed iteration orders.
"""

from __future__ import annotations

import argparse
import math
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
from .inverse import extra_hankel_moments, reconstruct, validate
from .muntz import ExponentSequence, build_muntz, build_weighted_family, gram_matrix, inverse_matrix
from .partial import arc_invert, half_disk_invert
from .quadrature import QuadratureSpec

__all__ = ["main"]

# Largest --nmax of forward/roundtrip and --nmax/--k of muntz: the exact
# assembly and solve cost grows about as N^4.
MAX_MODES = 64


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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


def _build_parser():
    parser = argparse.ArgumentParser(prog="eitdisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        if flags.get("input", True):
            p.add_argument("--input", required=True, help="input JSON path")
        if flags.get("output"):
            p.add_argument("--output", required=flags.get("output") == "required",
                           help="output path")
        if flags.get("nmax"):
            p.add_argument("--nmax", type=int, default=None, help="max mode frequency")
        if flags.get("tol"):
            p.add_argument("--tol", type=float, default=1e-9, help="validation tolerance")
        if flags.get("quad"):
            p.add_argument("--quad-r", type=int, default=64, help="radial quadrature order")
            p.add_argument("--quad-phi", type=int, default=512, help="angular quadrature order")
        if flags.get("reg_cap"):
            p.add_argument("--reg-cap", type=int, default=None,
                           help="drop coefficients with index above this cap")
        if flags.get("rational"):
            p.add_argument("--rational", action="store_true",
                           help="exact rational arithmetic internally")
        if flags.get("grid"):
            p.add_argument("--nr", type=int, default=24, help="radial grid levels")
            p.add_argument("--nphi", type=int, default=64, help="angular grid count")
        p.set_defaults(func=func)
        return p

    p = add("forward", _cmd_forward, "assemble boundary-data matrices from a field",
            output="required", nmax=True, quad=True)
    p.add_argument("--oracle", action="store_true",
                   help="also write a quadrature-oracle comparison report")

    add("invert", _cmd_invert, "reconstruct a field from boundary-data matrices",
        output="required", nmax=True, tol=True, reg_cap=True, rational=True)

    add("roundtrip", _cmd_roundtrip, "forward then invert; report coefficient error",
        nmax=True, tol=True, rational=True)

    add("validate", _cmd_validate, "check structural identities of a matrix set",
        tol=True)

    add("eval", _cmd_eval, "sample a field on a polar grid as CSV",
        output="required", grid=True)

    add("half-invert", _cmd_half_invert, "invert half-disk sine-mode data",
        output="required", nmax=True, tol=True, reg_cap=True, grid=True)

    p = add("arc-invert", _cmd_arc_invert, "invert arc data via conformal transplantation",
            output="required", nmax=True, tol=True, reg_cap=True, grid=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="arc half-opening (overrides the value in the data file)")
    p.add_argument("--map-debug", action="store_true",
                   help="also write boundary images of the conformal map")

    p = add("muntz", _cmd_muntz, "print exact basis coefficient tables", input=False)
    p.add_argument("--k", type=int, default=0, help="angular order of the weighted family")
    p.add_argument("--nmax", type=int, default=6, help="largest index to print")
    p.add_argument("--seq", type=str, default=None,
                   help="comma-separated rational exponents for a custom sequence")
    return parser


def _check_paths(args):
    if getattr(args, "output", None) and args.output == getattr(args, "input", None):
        raise FormatError("input and output paths must differ")


def _write(path, content):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _sibling(path, suffix):
    base = path[: -len(".json")] if path.endswith(".json") else path
    return base + suffix


def _cmd_forward(args) -> int:
    _check_paths(args)
    field = io.field_from_dict(io.load_json(args.input))
    mset = _assemble(field, args.nmax, "forward")
    _write(args.output, io.dumps(io.dtn_to_dict(mset)))
    if args.oracle:
        quad = QuadratureSpec(args.quad_r, args.quad_phi)
        report = _oracle_report(field, mset, quad)
        _write(_sibling(args.output, ".oracle.json"), io.dumps(report))
        print(f"oracle max scaled deviation: {io.format_float(report['max_scaled_deviation'])}")
    return 0


def _check_cap(value, flag):
    if value > MAX_MODES:
        raise DomainError(f"{flag} {value} is above the cap of {MAX_MODES}")


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
    _check_paths(args)
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
    coeffs = {}
    for k, prof in field.cos.items():
        for p, v in prof.terms:
            coeffs[("cos", k, p)] = float(v)
    for k, prof in field.sin.items():
        for p, v in prof.terms:
            coeffs[("sin", k, p)] = float(v)
    return coeffs


def _cmd_roundtrip(args) -> int:
    field = io.field_from_dict(io.load_json(args.input))
    mset = _assemble(field, args.nmax, "roundtrip")
    arithmetic = "rational" if args.rational else "auto"
    rec = reconstruct(mset, tol=args.tol, arithmetic=arithmetic)
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
    _check_paths(args)
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
    images = _psi_array(cmap, z)
    lines = ["re_z,im_z,re_psi,im_psi"]
    for zz, ww in zip(z, images):
        lines.append(",".join(io.format_float(v) for v in (zz.real, zz.imag, ww.real, ww.imag)))
    return "\n".join(lines) + "\n"


def _cmd_muntz(args) -> int:
    _check_cap(args.nmax, "--nmax")
    _check_cap(args.k, "--k")
    if args.seq:
        try:
            seq = ExponentSequence(Fraction(part.strip()) for part in args.seq.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad exponent list: {exc}") from exc
        size = len(seq)
        gram = gram_matrix(seq, size)  # admissibility is checked before anything is printed
        inv = inverse_matrix(seq, size)
        for n in range(size):
            poly = build_muntz(seq, n)
            terms = " ".join(f"{c}*x^{e}" for e, c in zip(poly.exponents, poly.coefficients))
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


if __name__ == "__main__":
    sys.exit(main())
