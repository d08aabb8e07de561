"""JSON wire format for complex matrices and multi-matrix instances.

A matrix file is ``{"rows": r, "cols": c, "data": [[[re, im], ...], ...]}``
with one ``[real, imaginary]`` pair per entry; no string forms are accepted.
An instance file is an object keyed by symbol names (``a``, ``b``, ``d``,
``A``, ``B``, ``C``, ``D``, ``x``) whose values are matrix objects; integer
parameters (``split``) pass through as plain numbers.
"""

from __future__ import annotations

import json
import math

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
            re, im = float(entry[0]), float(entry[1])
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
    """Decode the named symbols from an instance object."""
    if not isinstance(obj, dict):
        raise ValueError("instance file must be a JSON object")
    out = {}
    for name in symbols:
        if name not in obj:
            raise ValueError(f"instance is missing symbol {name!r}")
        value = obj[name]
        if isinstance(value, dict):
            out[name] = parse_matrix(value)
        elif _is_int(value):
            out[name] = value
        else:
            raise ValueError(f"symbol {name!r} must be a matrix object or int")
    return out


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return matrix_to_obj(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def dumps_report(report: dict) -> str:
    """Serialize a report dict deterministically (canonical form)."""
    return json.dumps(_jsonable(report), indent=2)
