"""Deterministic JSON / CSV serialization.

All floats are written with 17 significant digits via a fixed recursive
encoder, so identical objects always serialize to identical bytes; a list of
floats, or of [int, float] pairs, is formatted in one pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import FormatError, ShapeError
from .fields import FourierRadialField, RadialProfile
from .forward import BLOCK_NAMES, DtnMatrixSet, index_origins
from .inverse import Reconstruction
from .partial import HalfDiskData

__all__ = [
    "format_float",
    "dumps",
    "load_json",
    "field_to_dict",
    "field_from_dict",
    "dtn_to_dict",
    "dtn_from_dict",
    "reconstruction_to_dict",
    "arc_data_to_dict",
    "arc_data_from_dict",
    "grid_to_csv",
]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise FormatError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize to compact JSON with fixed float formatting; trailing newline."""
    return _encode(obj) + "\n"


def _encode(obj):
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return _encode_list(obj)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def _encode_list(obj):
    """A list of floats, or of [int, float] pairs, in one formatting pass; others item by item."""
    if all(type(v) is float for v in obj):
        text = "%.17g," * len(obj) % tuple(obj)
    elif all(type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is float for v in obj):
        text = "[%d,%.17g]," * len(obj) % tuple(x for pair in obj for x in pair)
    else:
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if "n" in text:  # "nan" or "inf": format_float raises for the first such value
        for v in obj:
            _encode(v)
    return "[" + text[:-1] + "]"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def field_to_dict(field: FourierRadialField) -> dict:
    def table(profiles):
        return {
            str(k): [[p, float(v)] for p, v in prof.terms]
            for k, prof in profiles.items()
        }

    return {"kind": field.kind, "cos": table(field.cos), "sin": table(field.sin)}


def field_from_dict(doc) -> FourierRadialField:
    if not isinstance(doc, dict):
        raise FormatError("field document must be a JSON object")

    def profiles(name):
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise FormatError(f"field section {name!r} must be an object")
        out = {}
        for key, terms in section.items():
            try:
                k = int(key)
            except ValueError as exc:
                raise FormatError(f"angular order key {key!r} is not an integer") from exc
            if not isinstance(terms, list) or not all(
                isinstance(t, list) and len(t) == 2 for t in terms
            ):
                raise FormatError(f"profile for {name}[{key}] must be a list of [power, value]")
            if any(isinstance(x, bool) for t in terms for x in t):
                raise FormatError(f"profile for {name}[{key}] has a boolean power or value")
            try:
                out[k] = RadialProfile((p, float(v)) for p, v in terms)
            except (TypeError, ValueError, OverflowError) as exc:
                raise FormatError(f"bad profile term in {name}[{key}]: {exc}") from exc
        return out

    try:
        return FourierRadialField(kind=doc.get("kind"), cos=profiles("cos"), sin=profiles("sin"))
    except (TypeError, ValueError) as exc:  # the field's KindMismatchError is a TypeError
        raise FormatError(str(exc)) from exc


def dtn_to_dict(mset: DtnMatrixSet) -> dict:
    origins = index_origins(mset.kind)
    doc = {
        "kind": mset.kind,
        "N": mset.N,
        "index_origin": {name: list(origins[name]) for name in BLOCK_NAMES},
    }
    for name in BLOCK_NAMES:
        doc[name] = mset.block(name).tolist()
    return doc


def dtn_from_dict(doc) -> DtnMatrixSet:
    if not isinstance(doc, dict):
        raise FormatError("matrix document must be a JSON object")
    kind = doc.get("kind")
    n = doc.get("N")
    if not isinstance(n, int) or isinstance(n, bool):
        raise FormatError("matrix document needs an integer 'N'")
    blocks = {}
    for name in BLOCK_NAMES:
        if name not in doc:
            raise FormatError(f"matrix document missing block {name!r}")
        blocks[name] = _float_matrix(doc[name], f"block {name!r}")
    declared = doc.get("index_origin")
    if declared is not None:
        expected = {k: list(v) for k, v in index_origins(kind).items()}
        if declared != expected:
            raise ShapeError(f"index_origin {declared!r} does not match kind {kind!r}")
    return DtnMatrixSet(kind, n, blocks["cc"], blocks["ss"], blocks["sc"], blocks["cs"])


def _float_matrix(rows, what) -> np.ndarray:
    """A JSON list of numeric rows as a float array.

    Entries other than numbers (booleans included) are a FormatError, rows of
    unequal length a ShapeError.
    """
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ShapeError(f"{what} is not a list of rows")
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for row in rows for x in row):
        raise FormatError(f"{what} has an entry that is not a number")
    try:
        return np.asarray(rows, dtype=float)
    except OverflowError as exc:
        raise FormatError(f"{what} has an entry beyond the range of a double") from exc
    except ValueError as exc:
        raise ShapeError(f"{what} is not a rectangular numeric matrix") from exc


def reconstruction_to_dict(rec: Reconstruction) -> dict:
    p, q = rec._floats()  # the view's n / D: float(c), no Fraction built
    return {
        "N": rec.N,
        "kind": rec.kind,
        "p": {str(k): v for k, v in p.items()},
        "q": {str(k): v for k, v in q.items()},
        "condition": [float(c) for c in rec.condition.get(0, [])],
    }


def arc_data_to_dict(data: HalfDiskData, alpha: float | None = None) -> dict:
    doc = {}
    if alpha is not None:
        doc["alpha"] = float(alpha)
    doc["N"] = data.N
    doc["data"] = data.values.tolist()
    return doc


def arc_data_from_dict(doc) -> tuple:
    """Returns (HalfDiskData, alpha-or-None)."""
    if not isinstance(doc, dict):
        raise FormatError("data document must be a JSON object")
    if "data" not in doc:
        raise FormatError("data document missing 'data' matrix")
    values = _float_matrix(doc["data"], "'data'")
    try:
        data = HalfDiskData(values)
    except ValueError as exc:
        raise ShapeError(f"'data' is not a square numeric matrix: {exc}") from exc
    declared_n = doc.get("N")
    if declared_n is not None and (isinstance(declared_n, bool) or declared_n != data.N):
        raise ShapeError(f"declared N={declared_n} does not match data size {data.N}")
    alpha = doc.get("alpha")
    if alpha is not None:
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise FormatError(f"'alpha' must be a number, got {alpha!r}")
        alpha = float(alpha)
    return data, alpha


def grid_to_csv(rows) -> str:
    return _csv("x,y,value", rows)


def _csv(header, rows) -> str:
    """The header line, then one line per row of floats, each formatted as ``format_float`` does."""
    names = header.split(",")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise FormatError(f"grid must be an array of ({', '.join(names)}) rows")
    bad = rows[~np.isfinite(rows)]
    if bad.size:
        format_float(bad[0])  # raises the FormatError for the first non-finite value
    line = ",".join(["%.17g"] * len(names)) + "\n"
    return header + "\n" + line * len(rows) % tuple(rows.ravel().tolist())
