import ast
import csv
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesinv.csvio import read_csv, write_csv

SRC = Path(__file__).resolve().parent.parent / "src" / "bayesinv"


def test_bare_matrix_roundtrip(tmp_path):
    mat = np.random.default_rng(0).standard_normal((4, 3))
    path = tmp_path / "m.csv"
    write_csv(path, None, mat.T)
    assert path.read_text().splitlines()[0] == ",".join(repr(float(v)) for v in mat[0])
    assert np.array_equal(read_csv(path), mat)


def test_header_rows_and_leading_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "value", "note"], [[3, 10], [0.1, 2.5e-17], ["a", "b"]])
    assert path.read_bytes() == b"n,value,note\r\n3,0.1,a\r\n10,2.5e-17,b\r\n"
    assert np.array_equal(read_csv(path, ["n", "value"]), [[3.0, 0.1], [10.0, 2.5e-17]])
    with pytest.raises(ValueError, match="'x,y'"):
        read_csv(path, ["x", "y"])


def _row_writer(path, header, columns):
    """The row writer the column writer replaced: ``csv.writer`` over ``repr(float(v))``."""
    rows = zip(*(c if np.ndim(c) == 1 else itertools.repeat(c) for c in columns))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


# signed zeros, infinities, nan, subnormals and the points where repr switches
# between positional and exponent notation
REPR_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
              2.225073858507201e-308, 1e-5, 9.999999999999999e-06, 1.0000000000000001e-05,
              1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16]
FLOATS = st.one_of(st.sampled_from(REPR_EDGES), st.floats())
SCALARS = st.one_of(FLOATS, st.integers(-10**6, 10**6), st.booleans())


def _arrays(nrows):
    size = {"min_size": nrows, "max_size": nrows}
    return st.one_of(
        st.lists(FLOATS, **size).map(np.array),
        st.lists(st.integers(-2**63, 2**63 - 1), **size).map(lambda v: np.array(v, np.int64)),
        st.lists(st.booleans(), **size).map(lambda v: np.array(v, bool)),
        st.lists(st.text("abz019 .-_", min_size=1, max_size=4), **size).map(np.array),
    )


@st.composite
def _tables(draw):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    columns = [draw(st.one_of(_arrays(nrows), SCALARS)) for _ in range(ncols)]
    if all(np.ndim(c) == 0 for c in columns):
        columns[0] = draw(_arrays(nrows))
    names = st.lists(st.text("abxy_", min_size=1, max_size=5), min_size=ncols, max_size=ncols)
    return draw(st.none() | names), columns


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_columns_write_the_row_writers_bytes(tmp_path_factory, table):
    header, columns = table
    base = tmp_path_factory.getbasetemp()
    write_csv(base / "columns.csv", header, columns)
    _row_writer(base / "rows.csv", header, columns)
    assert (base / "columns.csv").read_bytes() == (base / "rows.csv").read_bytes()


def test_scalar_column_repeats_on_every_row(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["x", "x_true"], [np.array([0.5, -0.0]), 1e16])
    assert path.read_bytes() == b"x,x_true\r\n0.5,1e+16\r\n-0.0,1e+16\r\n"


@pytest.mark.parametrize("header, columns, message", [
    (["a", "b"], [[1.0, 2.0], [3.0]], "columns of unequal lengths [1, 2]"),
    (None, [np.zeros((2, 2))], "column 0 has 2 dimensions, not 1"),
    (["a", "b"], [[1.0], (v for v in [2.0])], "column b holds Python objects"),
    (["a", "b"], zip([1.0], [2.0]), "columns must be a sequence of columns, not a zip"),
    (["a", "b"], [[1.0], 2.0, 3.0], "2 header names for 3 columns"),
    (["a", "b"], [1.0, 2.0], "every column is a scalar"),
    (["a", "b"], [[1.0], ["p,q"]], "column b cell 'p,q' would need quoting"),
    (["a", "b"], [[1.0], ['say "q"']], "would need quoting"),
    (["a", "b"], [[1.0], ["p\rq"]], "would need quoting"),
    (["a", "b"], [[1.0], ["p\nq"]], "would need quoting"),
    (["a", "b,c"], [[1.0], [2.0]], "column names cell 'b,c' would need quoting"),
    (["a"], [["p", ""]], "column a cell '' would need quoting"),
])
def test_refused_tables_name_the_path_and_create_no_file(tmp_path, header, columns, message):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError) as err:
        write_csv(path, header, columns)
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value)
    assert not path.exists()


def test_header_only_file_reads_as_no_rows(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("x,y,note\n")
    assert read_csv(path, ["x", "y"]).shape == (0, 2)
    path.write_text("")
    assert read_csv(path).shape == (0, 0)


@pytest.mark.parametrize("text, header, message", [
    ("x,y\n0.1,0.2\n0.3\n", ["x", "y"], "line 3: expected 2 values, got 1"),
    ("x,y\n0.1,0.2\n\n", ["x", "y"], "line 3: expected 2 values, got 0"),
    ("x,y\n0.1,0.2\n0.3,abc\n", ["x", "y"], "line 3: could not convert string to float: 'abc'"),
    ("1.0,2.0\n3.0\n", None, "line 2: expected 2 values, got 1"),
    ("1.0,2.0\n3.0,4.0,5.0\n", None, "line 2: expected 2 values, got 3"),
    ("1.0,2.0\n3.0,\n", None, "line 2: could not convert string to float: ''"),
])
def test_bad_rows_name_the_file_and_line(tmp_path, text, header, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_csv(path, header)
    assert str(err.value) == f"{path}: {message}"


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
