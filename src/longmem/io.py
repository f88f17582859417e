"""Deterministic CSV/JSON emission shared by the CLI subcommands."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

FLOAT_FMT = "%.17g"
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def write_table_csv(path: Path, header, rows) -> None:
    """Generic table: header list plus iterable of row tuples.

    Python floats are written with FLOAT_FMT and other fields with ``str``;
    a text field holding a comma, a quote or a line break is quoted as in
    RFC 4180, so every row has the header's width.
    """
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([FLOAT_FMT % v if type(v) is float
                               else '"' + v.replace('"', '""') + '"'
                               if type(v) is str and _NEEDS_QUOTES.search(v)
                               else str(v) for v in row]) + "\n")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path, payload: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline."""
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
