"""Deterministic JSON / CSV serialization.

All floats are written with 17 significant digits via a fixed recursive
encoder, so identical objects always serialize to identical bytes; a list of
floats, or of [int, float] pairs, is formatted in one pass.
"""

from __future__ import annotations

import itertools
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
    """A list of floats, or of [int, float] pairs, in one formatting pass; others item by item.

    Types and lengths are read by ``map`` and compared as lists, loops that run in C.
    """
    types = [*map(type, obj)]
    n = len(types)
    if types.count(float) == n:
        text = "%.17g," * n % tuple(obj)
    elif (types.count(list) == n and [*map(len, obj)].count(2) == n
          and [*map(type, flat := tuple(itertools.chain.from_iterable(obj)))] == [int, float] * n):
        text = "[%d,%.17g]," * n % flat
    else:
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if "n" in text:  # "nan" or "inf": format_float raises for the first such value
        for v in obj:
            _encode(v)
    return "[" + text[:-1] + "]"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a repeated key, too many digits
        raise FormatError(f"cannot read {path} as JSON: {exc}") from exc


def _object(pairs) -> dict:
    """A JSON object; a repeated key is a ValueError, where ``json`` would keep its last value."""
    if len(obj := dict(pairs)) < len(pairs):
        raise ValueError(f"key {next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))!r} appears twice")
    return obj


def _numbers(values, what) -> list:
    """JSON numbers as floats: each an int or a float by exact type (so not a bool), within the double range."""
    if not {*map(type, values)} <= {int, float}:
        raise FormatError(f"{what} holds {next(v for v in values if type(v) not in (int, float))!r}, not a number")
    try:
        return [*map(float, values)]
    except OverflowError:
        raise FormatError(f"{what} holds a number beyond the range of a double") from None


def _integer(value, what) -> int:
    """A JSON integer: an int by exact type, so a boolean, a float such as 2.0, a string or null is a FormatError."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def field_to_dict(field: FourierRadialField) -> dict:
    def table(profiles):
        return {
            str(k): [[p, v] for p, v in prof._doubles()]  # to_field's exact profiles build no Fraction
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
            if not key.removeprefix("-").isdecimal() or str(k := int(key)) != key:  # not "01", " 1", "+1", "1_0"
                raise FormatError(f"angular order key {key!r} is not a plain integer such as '0' or '12'")
            if not isinstance(terms, list) or not all(isinstance(t, list) and len(t) == 2 for t in terms):
                raise FormatError(f"profile for {name}[{key}] must be a list of [power, value]")
            values = _numbers([v for _, v in terms], f"profile for {name}[{key}]")
            try:
                out[k] = RadialProfile(zip([p for p, _ in terms], values))
            except ValueError as exc:  # the profile's DomainError
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
    n = _integer(doc.get("N"), "matrix document's 'N'")
    blocks = [_float_matrix(doc, name, f"block {name!r}") for name in BLOCK_NAMES]
    declared = doc.get("index_origin")
    for name, origin in declared.items() if isinstance(declared, dict) else ():
        for entry in origin if isinstance(origin, list) else ():
            _integer(entry, f"index_origin entry of {name!r}")
    if declared is not None and declared != {k: list(v) for k, v in index_origins(kind).items()}:
        raise ShapeError(f"index_origin {declared!r} does not match kind {kind!r}")
    return DtnMatrixSet(kind, n, *blocks)


def _float_matrix(doc, name, what) -> np.ndarray:
    """``doc[name]``, a list of rows of JSON numbers (``_numbers``), as a float array; a missing entry
    is a FormatError, rows that are not lists or of unequal length a ShapeError."""
    if name not in doc:
        raise FormatError(f"document missing {what}")
    if not isinstance(rows := doc[name], list) or not all(isinstance(row, list) for row in rows):
        raise ShapeError(f"{what} is not a list of rows")
    values = _numbers([*itertools.chain.from_iterable(rows)], what)
    if len(widths := {*map(len, rows)}) > 1:
        raise ShapeError(f"{what} is not a rectangular numeric matrix")
    return np.array(values).reshape(len(rows), *widths)  # [] keeps the shape (0,) np.asarray gives it


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
    data = HalfDiskData(_float_matrix(doc, "data", "matrix 'data'"))
    declared_n = doc.get("N")
    if declared_n is not None and _integer(declared_n, "declared 'N'") != data.N:
        raise ShapeError(f"declared N={declared_n} does not match data size {data.N}")
    alpha = doc.get("alpha")
    return data, None if alpha is None else _numbers([alpha], "'alpha'")[0]


def grid_to_csv(rows) -> str:
    return _csv("x,y,value", rows)


# Tables of ``_csv``: _SHIFT[searchsorted(_DECADES, |x|)] is k = 16 - floor(log10|x|) exactly, as 1e-4 .. 1e-1
# round up, or 0 outside [1e-4, 1e16); _FORM[k] is the template of |x| (+ 1 with a fraction) among 7 per sign and end.
_DECADES = np.array([float(f"1e{n}") for n in range(-4, 17)])
_SHIFT = np.array([0, *range(20, 0, -1), 0])
_FORM = np.array([6, *[4] * 16, 0, 1, 2, 3])
_TEMPLATES = np.array([(sign + form if form else "%s") + end for end in ",\n" for sign in ("", "-")
                       for form in ("0.%d", "0.0%d", "0.00%d", "0.000%d", "%d", "%d.%0*d", "")], dtype="S9")
_TEN = 10.0 ** np.arange(21)
_TEN_HI = _TEN * 134217729.0 - (_TEN * 134217729.0 - _TEN)  # Dekker's split: the high 26 bits
_TEN_LO = _TEN - _TEN_HI
_POW = 10 ** np.arange(19)
_TRAILING = sum(np.arange(10 ** 4) % 10 ** j == 0 for j in range(1, 5))  # zeros ending 0..9999, 4 for 0


def _csv(header, rows) -> str:
    """The header line, then one line per row of floats, each formatted as ``format_float`` does.

    For 1e-4 <= |x| < 1e16 and k = 16 - floor(log10|x|), |x| * 10**k = p + e exactly by Dekker's product,
    as 10**k <= 10**22 is a double; p >= 1e16 > 2**53 is even, so the 17 digits D = p + rint(e) round half
    to even as "%.17g" does, and a carry of D to 10**17 moves the point.  Others go through ``format_float``.
    """
    names = header.split(",")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise FormatError(f"grid must be an array of ({', '.join(names)}) rows")
    x = rows.ravel()
    with np.errstate(all="ignore"):
        k = _SHIFT[_DECADES.searchsorted(a := np.abs(x), "right")]
        a[k == 0] = 0.0
        hi = (c := a * 134217729.0) - (c - a)
        p, lo, b_hi, b_lo = a * _TEN[k], a - hi, _TEN_HI[k], _TEN_LO[k]
        d = p.astype(np.int64) + np.rint(((hi * b_hi - p) + hi * b_lo + lo * b_hi) + lo * b_lo).astype(np.int64)
    del a, c, hi, p, lo, b_hi, b_lo  # here and below, arrays are dropped early to lower a grid's peak memory
    carry = d == 10 ** 17
    d[carry], k = 10 ** 16, k - carry
    z = _TRAILING[d % 10 ** 4]
    for s in (4, 8, 12):  # D's trailing zeros, four digits at a time
        j = np.flatnonzero(z == s)
        z[j] += _TRAILING[d[j] // _POW[s] % 10 ** 4]
    z = np.minimum(z, k)
    q, r = np.divmod(d // _POW[z], _POW[(k - z) * (k < 17)])  # below 1, q is D without its zeros
    code = (_FORM[k] + (frac := r != 0) + 7 * (x < 0)).reshape(rows.shape)
    code[:, -1] += 14
    args = np.stack([q, k - z, r], 1)[np.stack([np.ones_like(frac), frac, frac], 1)].tolist()
    slow = np.flatnonzero(k == 0)
    for at, v in zip((slow + 2 * np.cumsum(frac)[slow]).tolist(), x[slow].tolist()):
        args[at] = format_float(v)  # raises the FormatError for the first non-finite value
    fmt = _TEMPLATES[code].tobytes().translate(None, b"\0").decode()
    del d, k, z, q, r, code
    return header + "\n" + fmt % tuple(args)
