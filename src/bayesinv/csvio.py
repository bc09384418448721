"""The one CSV read/write path for every file the package writes or reads.

Cells follow one rule: floats are written with ``repr`` (shortest round-trip),
so identical runs give byte-identical files, and every other cell (integers,
booleans, strings) with ``str``. Lines end in ``\\r\\n`` and no cell is ever
quoted. A bare matrix is written without a header row.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

__all__ = ["write_csv", "read_csv"]

# cells csv.writer would quote: any that holds a delimiter, a quote or a line
# break, and the empty cell of a one-column row
_QUOTED = re.compile(r'[,"\r\n]')
_QUOTED_ALONE = re.compile(r'\A\Z|[,"\r\n]')


def _cells(path, name, col, quoted) -> list | str:
    """One column's cells as strings, or a scalar column's single cell."""
    arr = np.asarray(col)
    if arr.ndim > 1:
        raise ValueError(f"{path}: column {name} has {arr.ndim} dimensions, not 1")
    if arr.dtype == object:
        raise ValueError(f"{path}: column {name} holds Python objects (a zip or a "
                         "generator?), not numbers or strings")
    cells = list(map(repr if arr.dtype.kind == "f" else str, np.atleast_1d(arr).tolist()))
    if arr.dtype.kind in "SU":
        bad = next(filter(quoted.search, cells), None)
        if bad is not None:
            raise ValueError(f"{path}: column {name} cell {bad!r} would need quoting")
    return cells[0] if arr.ndim == 0 else cells


def write_csv(path, header, columns) -> None:
    """Write ``columns`` to ``path`` below ``header``; ``header=None`` omits it.

    ``columns`` is a sequence whose items are 1-d arrays or sequences of equal
    length, or scalars repeated on every row. Float cells are written with
    ``repr``, all others with ``str``, and each line ends in ``\\r\\n``. Unequal
    lengths, a column of more than one dimension or of Python objects (a
    ``zip`` or a generator), and a string cell that would need quoting raise
    ``ValueError`` naming ``path``, before the file is created.
    """
    if not hasattr(columns, "__len__"):
        raise ValueError(f"{path}: columns must be a sequence of columns, "
                         f"not a {type(columns).__name__}")
    names = range(len(columns)) if header is None else header
    if len(names) != len(columns):
        raise ValueError(f"{path}: {len(names)} header names for {len(columns)} columns")
    quoted = _QUOTED_ALONE if len(columns) == 1 else _QUOTED
    cells = [_cells(path, name, col, quoted) for name, col in zip(names, columns)]
    lengths = {len(c) for c in cells if isinstance(c, list)}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {sorted(lengths)}")
    if cells and not lengths:
        raise ValueError(f"{path}: every column is a scalar, so none gives the row count")
    nrows = lengths.pop() if lengths else 0
    lines = [] if header is None else [",".join(_cells(path, "names", list(header), quoted))]
    lines += map(",".join, zip(*(c if isinstance(c, list) else [c] * nrows for c in cells)))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n" if lines else "")


def read_csv(path, header=None) -> np.ndarray:
    """Data rows of a CSV file as a 2-d float array.

    With ``header=None`` the file is a bare matrix whose rows all have the
    first row's width. Otherwise its first row must begin with the given
    column names, and only those columns are read; a file of the header alone
    gives shape ``(0, len(header))``. A short row or a cell that is not a
    number raises ``ValueError`` naming the file and the line.
    """
    width = None if header is None else len(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if header is not None:
            found = [h.strip() for h in next(reader, [])[:width]]
            if found != list(header):
                raise ValueError(f"{path}: expected header columns '{','.join(header)}'")
        data = []
        for row in reader:
            if width is None:
                width = len(row)
            if len(row) < width or (header is None and len(row) > width):
                raise ValueError(f"{path}: line {reader.line_num}: expected {width} values, "
                                 f"got {len(row)}")
            try:
                data.append([float(v) for v in row[:width]])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.array(data, dtype=float).reshape(len(data), width or 0)


def _save_matrix(basepath: str, header: dict, matrix) -> None:
    """Write ``<basepath>.json`` (``header``) and ``<basepath>.csv`` (the bare matrix)."""
    with open(basepath + ".json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
    write_csv(basepath + ".csv", None, matrix.T)


def _load_matrix(basepath: str) -> tuple[dict, np.ndarray]:
    with open(basepath + ".json") as fh:
        return json.load(fh), read_csv(basepath + ".csv")
