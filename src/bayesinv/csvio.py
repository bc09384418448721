"""The one CSV read/write path for every file the package writes or reads.

Rows follow one rule: floats are written with ``repr`` (shortest round-trip),
so identical runs give byte-identical files, and every other cell (integers,
strings) is written verbatim. A bare matrix is written without a header row.
"""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = ["write_csv", "read_csv"]


def write_csv(path, header, rows) -> None:
    """Write ``rows`` to ``path`` below ``header``; ``header=None`` omits it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def read_csv(path, header=None) -> np.ndarray:
    """Data rows of a CSV file as a 2-d float array.

    With ``header=None`` the file is a bare matrix. Otherwise its first row
    must begin with the given column names, and only those columns are read.
    """
    width = None if header is None else len(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if header is not None:
            found = [h.strip() for h in next(reader, [])[:width]]
            if found != list(header):
                raise ValueError(f"{path}: expected header columns '{','.join(header)}'")
        return np.array([[float(v) for v in row[:width]] for row in reader])


def _save_matrix(basepath: str, header: dict, matrix) -> None:
    """Write ``<basepath>.json`` (``header``) and ``<basepath>.csv`` (the bare matrix)."""
    with open(basepath + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
    write_csv(basepath + ".csv", None, matrix)


def _load_matrix(basepath: str) -> tuple[dict, np.ndarray]:
    with open(basepath + ".json") as fh:
        return json.load(fh), read_csv(basepath + ".csv")
