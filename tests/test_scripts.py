"""Smoke runs of the driver scripts in scripts/, each in a fresh interpreter."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def documented_script_columns():
    """{script: columns} from the experiment-scripts section of FORMATS.md."""
    text = (ROOT / "FORMATS.md").read_text()
    return {name: [c.strip() for c in cols.split(",")]
            for name, cols in re.findall(r"`scripts/(\w+\.py)` writes `([^`]+)`", text)}


@pytest.mark.parametrize("script", ["coverage_study.py", "risk_contrast_study.py"])
def test_study_writes_documented_table(script, tmp_path):
    out = tmp_path / "replications.csv"
    proc = run_script(script, "--reps", "300", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == documented_script_columns()[script]
    assert len(rows) == 300
    assert [int(r[0]) for r in rows] == list(range(300))
    if "covered" in header:
        assert {r[header.index("covered")] for r in rows} <= {"0", "1"}


def test_run_demos_exits_zero(tmp_path):
    proc = run_script("run_demos.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "runs" / "calibrate" / "estimates.json").is_file()
