import ast
from pathlib import Path

import numpy as np
import pytest

from bayesinv.csvio import read_csv, write_csv

SRC = Path(__file__).resolve().parent.parent / "src" / "bayesinv"


def test_bare_matrix_roundtrip(tmp_path):
    mat = np.random.default_rng(0).standard_normal((4, 3))
    path = tmp_path / "m.csv"
    write_csv(path, None, mat)
    assert path.read_text().splitlines()[0] == ",".join(repr(float(v)) for v in mat[0])
    assert np.array_equal(read_csv(path), mat)


def test_header_rows_and_leading_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "value", "note"], [(3, 0.1, "a"), (10, 2.5e-17, "b")])
    assert path.read_bytes() == b"n,value,note\r\n3,0.1,a\r\n10,2.5e-17,b\r\n"
    assert np.array_equal(read_csv(path, ["n", "value"]), [[3.0, 0.1], [10.0, 2.5e-17]])
    with pytest.raises(ValueError, match="'x,y'"):
        read_csv(path, ["x", "y"])


def test_only_csvio_imports_csv():
    # every CSV file goes through csvio, so the format lives in one module
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "csv" in names and path.name != "csvio.py":
                offenders.append(path.name)
    assert offenders == []
