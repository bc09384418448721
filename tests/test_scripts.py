"""Smoke run of the driver script in scripts/, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_run_demos_exits_zero(tmp_path):
    proc = run_script("run_demos.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "runs" / "calibrate" / "estimates.json").is_file()
    for study in ("coverage", "risk_contrast"):
        assert (tmp_path / "runs" / study / "replications.csv").is_file()
