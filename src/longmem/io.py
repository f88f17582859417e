"""Deterministic CSV/JSON emission shared by the CLI subcommands."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def write_matrix_csv(path: Path, matrix: np.ndarray, labels, corner: str = "s\\t") -> None:
    """Square matrix with grid-point labels on both axes."""
    matrix = np.atleast_2d(matrix)
    labels = [format_float(x) for x in labels]
    with Path(path).open("w", newline="") as fh:
        fh.write(corner + "," + ",".join(labels) + "\n")
        for lab, row in zip(labels, matrix):
            fh.write(lab + "," + ",".join(format_float(v) for v in row) + "\n")


def write_table_csv(path: Path, header, rows) -> None:
    """Generic table: header list plus iterable of row tuples."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_paths_csv(path: Path, values: np.ndarray, points) -> None:
    """Paths as `k, t_1..t_q` with one row per time step."""
    with Path(path).open("w", newline="") as fh:
        fh.write("k," + ",".join(format_float(t) for t in points) + "\n")
        for k, row in enumerate(np.atleast_2d(values), start=1):
            fh.write(str(k) + "," + ",".join(format_float(v) for v in row) + "\n")


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
