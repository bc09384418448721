"""Tests of the benchmark itself: oracles, tail statistic, spans, refusal.

    python3 -m pytest perfbench -q

A perturbed library output must be reported as a failed job (counted in
``failed``, excluded from the timings), never as a faster or slower run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

jobs = run.import_library()

from bayesinv import cli  # noqa: E402
from bayesinv import forward_ops as fo  # noqa: E402
from bayesinv import gp_rkhs as gr  # noqa: E402
from bayesinv import inverse_regression as ir  # noqa: E402
from bayesinv import linear_posterior as lp  # noqa: E402
from bayesinv import spline as sp  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _shift_mean(fit):
    def wrapped(*args, **kwargs):
        post = fit(*args, **kwargs)
        return dataclasses.replace(post, mean=post.mean + 1e-6 * abs(post.mean).max())
    return wrapped


def _offset(fn, delta):
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return (out[0] + delta,) + out[1:]
        return out + delta
    return wrapped


def _scaled_pdf(pdf):
    def wrapped(self, x):
        return 1.01 * pdf(self, x)
    return wrapped


def _drifting_noise(simulate):
    calls = []

    def wrapped(op, theta, sigma, seed):
        calls.append(seed)
        return simulate(op, theta, sigma, seed) + 1e-12 * len(calls)
    return wrapped


# workload, (owner, attribute, perturbation), job kinds expected to fail
PERTURBATIONS = [
    ("linear_dense", (lp, "fit", _shift_mean), ""),
    ("gp_spline", (gr, "gp_predict", lambda f: _offset(f, 1e-9)), "gp/"),
    ("gp_spline", (sp, "spline_predict", lambda f: _offset(f, 1e-6)), "spline/"),
    ("gp_spline", (gr, "spectral_kernel", lambda f: _offset(f, 1e-3)), "spectral/"),
    ("calibration", (ir.Density1D, "quantile", lambda f: _offset(f, 1e-3)), "hoadley/"),
    ("calibration", (ir, "coverage_experiment",
                     lambda f: lambda *a, **k: dataclasses.replace(f(*a, **k), coverage=0.5)), "coverage/"),
    # each later cycle reruns identical arguments, so drifting output bytes
    # are caught by the determinism check
    ("cli_demos", (fo, "simulate_data", _drifting_noise), "cli/demo-linear"),
    ("cli_demos", (ir.Density1D, "pdf", _scaled_pdf), "cli/calibrate"),
]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_warm_cycle_passes_its_oracles(workload, tmp_path):
    cycle = jobs.build_jobs(workload, 3, tmp_path, warm=True)
    ph = run.run_phase(cycle, 0.0, cycles=2)
    assert ph.failed == 0, ph.failures
    assert len(ph.times) == ph.attempted == 2 * len(cycle)


@pytest.mark.parametrize("workload,perturbation,failing", PERTURBATIONS,
                         ids=[f"{w}-{p[1]}" for w, p, _ in PERTURBATIONS])
def test_perturbed_output_is_a_failure(workload, perturbation, failing, tmp_path, monkeypatch):
    owner, attr, perturb = perturbation
    monkeypatch.setattr(owner, attr, perturb(getattr(owner, attr)))
    cycle = jobs.build_jobs(workload, 3, tmp_path, warm=True)
    ph = run.run_phase(cycle, 0.0, cycles=2)
    failed_kinds = {f.split(": ")[0] for f in ph.failures}
    assert failed_kinds and all(k.startswith(failing) for k in failed_kinds), ph.failures
    assert all(": oracle: " in f for f in ph.failures), ph.failures
    assert len(ph.times) + ph.failed == ph.attempted


def test_result_line_reports_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "setup_runs", lambda args: [1.0])
    monkeypatch.setattr(ir.Density1D, "pdf", _scaled_pdf(ir.Density1D.pdf))
    assert run.main(["--workload", "cli_demos", "--seed", "5", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == 11


def test_tail_is_eleventh_largest():
    value, level, count = run.tail([float(i) for i in range(1, 101)])
    assert (value, level, count) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_spans_nest_under_public_calls(tmp_path):
    from spans import LAYER_UNITS, Tracer, layer_metrics

    originals = (gr.gp_fit, ir.Density1D.quantile, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        cycle = [j for w in ("gp_spline", "calibration", "cli_demos")
                 for j in jobs.build_jobs(w, 4, tmp_path, warm=True)]
        ph = run.run_phase(cycle, 0.0, tracer, cycles=1)
    finally:
        tracer.uninstall()
    assert (gr.gp_fit, ir.Density1D.quantile, cli.main) == originals
    assert ph.failed == 0, ph.failures
    spans = tracer.spans
    parent_of = {(spans[s.parent].name if s.parent >= 0 else None, s.name) for s in spans}
    assert ("gp_rkhs.gp_fit", "gp_rkhs.gram") in parent_of
    assert ("inverse_regression.density_quantile", "inverse_regression.density_cdf") in parent_of
    assert ("cli.demo_linear", "linear_posterior.fit") in parent_of
    assert all(s.end >= s.start for s in spans)
    values = layer_metrics(spans)
    assert set(values) <= set(LAYER_UNITS)
    assert 0.0 < values["gp_rkhs.gp_fit.self_s"]
    assert values["inverse_regression.cdf_calls_per_quantile"] > 1.0
    cli_busy = sum(values[f"cli.{c}.busy_s"] for c in ("demo_linear", "gp", "calibrate", "inconsistency"))
    assert 0.0 < values["cli.self_s"] < cli_busy


def test_metric_names_match_benchmark_json():
    from spans import LAYER_UNITS

    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(LAYER_UNITS)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == list(LAYER_UNITS.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)
    assert list(run.WORKLOADS) == list(jobs.WORKLOADS)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "gp_spline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert not Path(tmp_path / ".perfbench").exists()
