"""JSON wire format for complex matrices and multi-matrix instances.

A matrix file is ``{"rows": r, "cols": c, "data": [[[re, im], ...], ...]}``
with one ``[real, imaginary]`` pair per entry; no string forms are accepted.
An instance file is an object keyed by symbol names (``a``, ``b``, ``d``,
``A``, ``B``, ``C``, ``D``, ``x``) whose values are matrix objects; the
integer parameter ``split`` is a plain JSON integer.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = [
    "parse_matrix",
    "matrix_to_obj",
    "parse_instance",
    "load_json",
    "dumps_report",
]


def _is_int(value) -> bool:
    """A JSON integer; JSON ``true``/``false`` decode to bool, which is not."""
    return isinstance(value, int) and not isinstance(value, bool)


_PART_TYPES = {int, float}


def _bulk_matrix(data, rows: int, cols: int):
    """The matrix of well-formed ``data``, validated in bulk: one scan of
    the types of the rows, the entries and their parts, one float64 array of
    shape (rows, cols, 2) and one finiteness test.  None when any of these
    fails; the entry walk of :func:`parse_matrix` then names the first bad
    entry.  The type scan admits exactly ``list`` containers and ``int`` or
    ``float`` parts, so JSON ``true``/``false`` and strings fall through."""
    try:
        entries = [*chain.from_iterable(data)]
        if ({*map(type, data), *map(type, entries)} != {list}
                or not {*map(type, chain.from_iterable(entries))}
                <= _PART_TYPES):
            return None
        parts = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if parts.shape != (rows, cols, 2) or not np.isfinite(parts).all():
        return None
    return parts.view(np.complex128).reshape(rows, cols)


def parse_matrix(obj) -> np.ndarray:
    """Decode one matrix object, validating shape and finiteness."""
    if not isinstance(obj, dict):
        raise ValueError("matrix object must be a JSON object")
    missing = [k for k in ("rows", "cols", "data") if k not in obj]
    if missing:
        raise ValueError(f"matrix object missing fields {missing}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (_is_int(rows) and _is_int(cols) and rows >= 1 and cols >= 1):
        raise ValueError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError(f"data must be a list of {rows} rows")
    out = _bulk_matrix(data, rows, cols)
    if out is not None:
        return out
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"row {i} must contain {cols} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(_is_int(v) or isinstance(v, float)
                               for v in entry)):
                raise ValueError(
                    f"entry ({i},{j}) must be a [real, imaginary] pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:
                raise ValueError(
                    f"entry ({i},{j}) is too large for a float") from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"entry ({i},{j}) is not finite")
            out[i, j] = complex(re, im)
    return out


def matrix_to_obj(A) -> dict:
    """Encode a matrix in the canonical field order (rows, cols, data)."""
    A = np.asarray(A, dtype=np.complex128)
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": [[[float(A[i, j].real), float(A[i, j].imag)]
                  for j in range(A.shape[1])] for i in range(A.shape[0])],
    }


def parse_instance(obj, symbols) -> dict:
    """Decode the named symbols from an instance object: ``split`` must be a
    JSON integer and every other symbol a matrix object.  Every error names
    the symbol it concerns."""
    if not isinstance(obj, dict):
        raise ValueError("instance file must be a JSON object")
    out = {}
    for name in symbols:
        if name not in obj:
            raise ValueError(f"instance is missing symbol {name!r}")
        value = obj[name]
        if name == "split":
            if not _is_int(value):
                raise ValueError(f"symbol {name!r} must be an integer")
            out[name] = value
        elif not isinstance(value, dict):
            raise ValueError(f"symbol {name!r} must be a matrix object")
        else:
            try:
                out[name] = parse_matrix(value)
            except ValueError as exc:
                raise ValueError(f"symbol {name!r}: {exc}") from None
    return out


def load_json(path):
    """The JSON value of the file at ``path``, as ``json.load`` gives it from
    the file opened in text mode with UTF-8: the bytes are decoded in one
    call and ``\r\n`` and lone ``\r`` become ``\n``, so values and the
    positions in decode and JSON errors are the same.  Nesting too deep for
    the decoder raises ``ValueError``."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input nested too deeply") from None


_INDENT = "  "
_INF = float("inf")


def _float_text(x: float) -> str:
    """A float as ``json.dumps`` writes it: ``float.__repr__`` or the
    ``NaN``/``Infinity``/``-Infinity`` tokens."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


@functools.cache
def _row_template(cols: int, level: int) -> str:
    """``%s`` template of one matrix row of ``cols`` [re, im] pairs, for a
    matrix object opened at nesting ``level``; it takes the row's 2*cols
    interleaved parts.  ``str`` of a float is ``float.__repr__``."""
    if cols == 0:
        return "[]"
    pair, part = "\n" + _INDENT * (level + 3), "\n" + _INDENT * (level + 4)
    entry = pair + "[" + part + "%s," + part + "%s" + pair + "]"
    return "[" + ",".join([entry] * cols) + "\n" + _INDENT * (level + 2) + "]"


def _write_matrix(A, level, out) -> None:
    """Write ``matrix_to_obj(A)`` without building it: each row is one
    template filled from the interleaved real and imaginary parts."""
    A = np.ascontiguousarray(A, dtype=np.complex128)
    rows, cols = A.shape[0], A.shape[1]
    key = "\n" + _INDENT * (level + 1)
    out.append(f'{{{key}"rows": {rows},{key}"cols": {cols},{key}"data": ')
    if rows == 0:
        out.append("[]")
    else:
        parts = A.view(np.float64).tolist()      # re, im interleaved
        if not np.isfinite(A).all():
            parts = [[_float_text(x) for x in row] for row in parts]
        template = _row_template(cols, level)
        sep = "\n" + _INDENT * (level + 2)
        out.append("[" + sep + ("," + sep).join(
            [template % tuple(row) for row in parts]) + key + "]")
    out.append("\n" + _INDENT * level + "}")


def _write(value, level, out) -> None:
    """Append the ``json.dumps(..., indent=2)`` text of ``value`` to out.

    ndarrays are written as :func:`matrix_to_obj` objects, numpy scalars as
    the matching Python numbers, complex numbers as [real, imaginary] pairs,
    tuples as lists and dict keys through ``str``.  The common exact types
    are dispatched first; subclasses and every other type take
    :func:`_write_other`.
    """
    cls = type(value)
    if cls is str:
        out.append(encode_basestring_ascii(value))
    elif cls is float:
        out.append(_float_text(value))
    elif cls is bool:
        out.append("true" if value else "false")
    elif cls is dict:
        _write_dict(value, level, out)
    elif cls is list:
        _write_list(value, level, out)
    elif cls is np.ndarray:
        _write_matrix(value, level, out)
    elif cls is int:
        out.append(int.__repr__(value))
    else:
        _write_other(value, level, out)


def _write_other(value, level, out) -> None:
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (float, np.floating)):
        out.append(_float_text(float(value)))
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(int.__repr__(int(value)))
    elif value is None:
        out.append("null")
    elif isinstance(value, dict):
        _write_dict(value, level, out)
    elif isinstance(value, (list, tuple)):
        _write_list(value, level, out)
    elif isinstance(value, np.ndarray):
        _write_matrix(value, level, out)
    elif isinstance(value, complex):
        _write_list([value.real, value.imag], level, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


def _write_dict(items, level, out) -> None:
    if not items:
        out.append("{}")
        return
    sep = "\n" + _INDENT * (level + 1)
    opener = "{"
    for k, v in items.items():
        out.append(opener + sep + encode_basestring_ascii(str(k)) + ": ")
        opener = ","
        _write(v, level + 1, out)
    out.append("\n" + _INDENT * level + "}")


def _write_list(items, level, out) -> None:
    if not items:
        out.append("[]")
        return
    sep = "\n" + _INDENT * (level + 1)
    opener = "["
    for v in items:
        out.append(opener + sep)
        opener = ","
        _write(v, level + 1, out)
    out.append("\n" + _INDENT * level + "]")


def dumps_report(report: dict) -> str:
    """Serialize a report in the canonical form: ``json.dumps(..., indent=2)``
    of the report with every ndarray as its :func:`matrix_to_obj` object."""
    out = []
    _write(report, 0, out)
    return "".join(out)
