"""Deterministic CSV/JSON emission shared by the CLI subcommands."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"
TABLE_BLOCK = 1024  # rows formatted and written at a time
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')

# SHA-256 from the interpreter's own module: _sha2 on Python 3.12 and later,
# _sha256 on 3.10 and 3.11, and hashlib's only if neither imports.  hashlib
# loads OpenSSL, 3.4 MB of resident memory in every process; the built-in
# code has no SHA-NI path and is about 5x slower per byte, some 5 ms per MB
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def _format_field(v) -> str:
    """Python floats with FLOAT_FMT, other values with ``str``; text holding
    a comma, a quote or a line break is quoted as in RFC 4180."""
    if type(v) is float:
        return FLOAT_FMT % v
    if type(v) is str and _NEEDS_QUOTES.search(v):
        return '"' + v.replace('"', '""') + '"'
    return str(v)


def _format_column(values) -> list[str]:
    """The fields of one block of a column, each distinct value formatted once.

    A bool, int or float array is deduplicated by bit pattern, so 0.0 and
    -0.0 keep their own text; any other column follows ``_format_field``
    value by value, formatting each distinct text, and each Python float
    distinct in value or sign, once.
    """
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("b", "i", "u") or kind == "f" and values.itemsize <= 8:
        bits = values.view(f"i{values.itemsize}") if kind == "f" else values
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = [_format_field(v) for v in distinct.view(values.dtype).tolist()]
        return [texts[k] for k in inverse.tolist()]
    if kind is not None:
        values = values.tolist()
    memo = {}
    fields = []
    for v in values:
        if type(v) is str or type(v) is float:
            key = (v, math.copysign(1.0, v)) if type(v) is float else v
            text = memo.get(key)
            if text is None:
                text = memo[key] = _format_field(v)
        else:
            text = _format_field(v)
        fields.append(text)
    return fields


def write_table_csv(path: Path, header, columns) -> None:
    """Generic table: header list plus equal-length columns, one per field.

    A column is a numpy array or a sequence; fields are written as
    ``_format_field`` gives them, ``TABLE_BLOCK`` rows at a time, so every
    row has the header's width.
    """
    rows = len(columns[0]) if len(columns) else 0
    if any(len(column) != rows for column in columns):
        raise ValueError(f"columns of unequal length: {[len(c) for c in columns]}")
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, TABLE_BLOCK):
            fields = [_format_column(column[start:start + TABLE_BLOCK]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def sha256_file(path: Path) -> str:
    h = sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path, payload: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
