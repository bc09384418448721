"""Golden outputs: the files each CLI command and each matrix save write, byte for byte.

Every directory under ``tests/golden/`` holds what one entry of ``RUNS``
wrote at reduced sizes. The test reruns each entry and requires every file to
be byte-equal; otherwise it fails and reports, per file and column (a CSV
column, or a JSON key), the largest relative change. After an intended change
of output, regenerate the affected entries with

    PYTHONPATH=src python tests/test_golden.py <name> ...

and state the bound the failing test reported.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from bayesinv import cli
from bayesinv import fd_priors as fp
from bayesinv import forward_ops as fo
from bayesinv.csvio import read_csv, write_csv

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cli(*argv):
    def write(out: Path) -> None:
        assert cli.main([*argv, "--out", str(out)]) == 0
    return write


def _saved(save, build):
    def write(out: Path) -> None:
        out.mkdir(parents=True)
        save(build(), str(out / "saved"))
    return write


RUNS = {
    "demo_linear_deblur": _cli("demo-linear", "--n", "30", "--seed", "2"),
    "demo_linear_seismic": _cli("demo-linear", "--kernel", "seismic", "--prior", "nonsmooth",
                                "--truth", "step", "--n", "30", "--tilde-sigma", "0.05"),
    **{f"gp_{kernel}": _cli("gp", "--kernel", kernel, "--n", "25", "--num-pred", "51",
                            "--seed", "1")
       for kernel in ("ou", "sqexp", "brownian", "spline")},
    "calibrate_m1": _cli("calibrate", "--n", "15", "--curve-points", "51", "--seed", "0"),
    "calibrate_m3": _cli("calibrate", "--n", "12", "--m", "3", "--x-true", "0.4",
                         "--curve-points", "51", "--seed", "1"),
    "inconsistency": _cli("inconsistency", "--n-values", "100,1000", "--curve-points", "32",
                          "--seed", "1"),
    "coverage": _cli("coverage", "--n-reps", "300", "--seed", "123"),
    "risk": _cli("risk", "--n-reps", "300", "--seed", "2024"),
    "operator_gravity": _saved(fo.save_operator,
                               lambda: fo.make_gravity(fo.Grid(-5.0, 5.0, 6), 1.0)),
    "prior_jump": _saved(fp.save_precision_root, lambda: fp.build_jump(6, [(3, 0.25)], 0.5)),
}


def _leaves(obj, key=""):
    """(dotted key, scalar) for every scalar in a JSON document."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{key}[{i}]")
    else:
        yield key, obj


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _columns(path: Path) -> dict:
    """{column: values}: a CSV's columns (numbered for a bare matrix) or a JSON file's scalars."""
    if path.suffix == ".json":
        return {k: [v] for k, v in _leaves(json.loads(path.read_text()))}
    first = path.read_text().split("\n", 1)[0].split(",")
    header = None if all(map(_parses_as_float, first)) else first
    data = read_csv(path, header)
    return {name: list(data[:, j]) for j, name in enumerate(header or range(data.shape[1]))}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def changes(old: Path, new: Path) -> list:
    """One line per column of ``new`` that differs from ``old``, with its largest relative change."""
    a, b = _columns(old), _columns(new)
    if list(a) != list(b):
        return [f"{old.name}: columns {list(a)} became {list(b)}"]
    lines = []
    for key in a:
        if len(a[key]) != len(b[key]):
            lines.append(f"{old.name} {key}: {len(a[key])} rows became {len(b[key])}")
        elif not all(map(_is_number, a[key] + b[key])):
            if a[key] != b[key]:
                lines.append(f"{old.name} {key}: {a[key]} became {b[key]}")
        elif a[key] != b[key]:
            x, y = np.array(a[key], dtype=float), np.array(b[key], dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(x == y, 0.0, np.abs(y - x) / np.abs(x))
            lines.append(f"{old.name} {key}: largest relative change {np.max(rel):.3g}")
    return lines or [f"{old.name}: bytes differ, values equal"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden(tmp_path, name):
    out = tmp_path / name
    RUNS[name](out)
    golden = GOLDEN / name
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
    report = [line for old in sorted(golden.iterdir())
              if old.read_bytes() != (out / old.name).read_bytes()
              for line in changes(old, out / old.name)]
    assert not report, "\n".join([f"{name} differs from its golden files:", *report])


def test_report_names_file_column_and_relative_change(tmp_path):
    old = GOLDEN / "gp_ou" / "curve.csv"
    header, *rows = old.read_text().splitlines()
    cells = rows[3].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-9))
    new = tmp_path / "curve.csv"
    new.write_text("\n".join([header, *rows[:3], ",".join(cells), *rows[4:]]) + "\n")
    (line,) = changes(old, new)
    assert line.startswith("curve.csv sd: largest relative change ")
    assert math.isclose(float(line.rsplit(" ", 1)[1]), 1e-9, rel_tol=1e-3)
    assert changes(old, old) == ["curve.csv: bytes differ, values equal"]


def test_report_covers_bare_matrices_and_json_keys(tmp_path):
    base = GOLDEN / "prior_jump"
    matrix = read_csv(base / "saved.csv")
    matrix[2, 1] *= 2.0
    write_csv(tmp_path / "saved.csv", None, matrix.T)
    assert changes(base / "saved.csv", tmp_path / "saved.csv") == [
        "saved.csv 1: largest relative change 1"]
    header = json.loads((base / "saved.json").read_text())
    header["tilde_sigma"] = "wide"
    (tmp_path / "saved.json").write_text(json.dumps(header))
    assert changes(base / "saved.json", tmp_path / "saved.json") == [
        "saved.json tilde_sigma: [0.5] became ['wide']"]


def test_golden_set_stays_small():
    assert sum(p.stat().st_size for p in GOLDEN.rglob("*") if p.is_file()) <= 100_000


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(RUNS):
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        RUNS[name](GOLDEN / name)
