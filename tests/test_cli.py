import argparse
import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bayesinv import cli
from bayesinv import gp_rkhs as gr
from bayesinv import inverse_regression as ir
from bayesinv import linear_posterior as lp
from bayesinv import spline as sp

SRC = Path(__file__).resolve().parent.parent / "src" / "bayesinv"


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_cli(args):
    return cli.main(args)


def documented_csv_headers():
    """{command: [(file-name regex, columns)]} from the tables in FORMATS.md."""
    text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
    headers = {}
    for section in text.split("\n## ")[1:]:
        command, _, body = section.partition("\n")
        rows = re.findall(r"^\| `([^`]+\.csv)` \| `([^`]+)`", body, flags=re.M)
        headers[command.strip()] = [
            (re.escape(name).replace("<N>", r"\d+"), [c.strip() for c in cols.split(",")])
            for name, cols in rows
        ]
    return headers


class TestDemoLinear:
    def test_deblur_denoises(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli([
            "demo-linear", "--kernel", "deblur", "--prior", "smooth-zero",
            "--truth", "smooth", "--n", "100", "--sigma", "0.01",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        for name in ("manifest.json", "truth.csv", "data.csv", "posterior.csv", "summary.json"):
            assert (out / name).exists()
        summary = read_json(out / "summary.json")
        assert summary["rmse_map"] < summary["rmse_data"]

    def test_seed_determinism_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_cli(["demo-linear", "--kernel", "seismic", "--prior", "nonsmooth",
                     "--truth", "step", "--n", "60", "--seed", "9", "--out", str(out)])
            outs.append(out)
        for name in ("truth.csv", "data.csv", "posterior.csv", "manifest.json", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_invalid_prior_name_writes_nothing(self, tmp_path):
        out = tmp_path / "bad"
        with pytest.raises(SystemExit) as exc:
            run_cli(["demo-linear", "--prior", "banana", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("kernel", ["gravity", "diffraction", "groundwater"])
    def test_other_kernels_run(self, tmp_path, kernel):
        out = tmp_path / kernel
        code = run_cli(["demo-linear", "--kernel", kernel, "--prior", "smooth-soft",
                        "--n", "40", "--out", str(out)])
        assert code == 0
        assert (out / "posterior.csv").exists()


class TestGP:
    def test_representer_residual_reported(self, tmp_path):
        # the residual reads the fit's own predictions, so the chain path of
        # ou and brownian is checked as well as the dense one
        for kernel in cli.GP_KERNELS:
            out = tmp_path / kernel
            code = run_cli(["gp", "--kernel", kernel, "--n", "20", "--seed", "1", "--out", str(out)])
            assert code == 0
            summary = read_json(out / "summary.json")
            assert summary["representer_residual_max"] < 1e-12, kernel
            lines = (out / "curve.csv").read_text().strip().splitlines()
            assert lines[0] == "x,mean,sd"

    def test_spline_kernel_gp_matches_spline_module(self):
        # cross-module consistency: GP regression with the scaled spline
        # kernel equals the spline fit with the polynomial part disabled
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0.05, 0.95, 12))
        y = np.sin(2 * math.pi * x) + 0.2 * rng.standard_normal(12)
        sigma2, sigma2_theta = 0.04, 1.5
        fit_gp = gr.gp_fit(x, y, gr.spline_cubic_kernel(sigma2_theta), math.sqrt(sigma2))
        fit_sp = sp.spline_fit(x, y, sigma2, sigma2_theta)
        smat = sigma2_theta * sp.spline_kernel(x[:, None], x[None, :])
        beta_off = smat @ np.linalg.solve(smat + sigma2 * np.eye(x.size), y)
        gp_at_knots = np.array([gr.gp_predict(fit_gp, float(v))[0] for v in x])
        assert np.abs(gp_at_knots - beta_off).max() < 1e-8
        # the spline's GP stage holds Khat^(-1) y as its coefficients
        assert np.abs(smat @ fit_sp.gp.coefficients - beta_off).max() < 1e-8

    def test_brownian_reads_variance(self, tmp_path):
        # brownian is variance * min(x, x'): variance 4 moves the curve, and
        # the run equals gp_fit under integrated_wiener_kernel(0, 4.0)
        curves = {}
        for variance in ("1", "4"):
            out = tmp_path / variance
            assert run_cli(["gp", "--kernel", "brownian", "--variance", variance, "--out", str(out)]) == 0
            curves[variance] = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1)
        assert not np.array_equal(curves["1"][:, 1:], curves["4"][:, 1:])
        x, y = np.loadtxt(tmp_path / "4" / "data.csv", delimiter=",", skiprows=1).T
        fit = gr.gp_fit(x, y, gr.integrated_wiener_kernel(0, 4.0), cli.DEFAULTS["gp"]["sigma"])
        means, variances = gr.gp_predict_curve(fit, curves["4"][:, 0])
        assert np.array_equal(curves["4"][:, 1], means)
        assert np.array_equal(curves["4"][:, 2], np.sqrt(variances))
        assert read_json(tmp_path / "4" / "manifest.json")["params"]["variance"] == 4.0

    def test_wrong_data_header_rejected(self, tmp_path, capsys):
        data = tmp_path / "obs.csv"
        data.write_text("a,b\n0.1,0.2\n0.5,0.3\n")
        code = run_cli(["gp", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "x,y" in capsys.readouterr().err

    def test_empty_training_set_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["gp", "--n", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "bayesinv: x must hold at least one training input\n"
        assert not out.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        code = run_cli(["gp", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cannot read input file" in capsys.readouterr().err

    def test_data_file_roundtrip(self, tmp_path):
        data = tmp_path / "obs.csv"
        rng = np.random.default_rng(0)
        xs = np.sort(rng.uniform(0, 1, 15))
        ys = np.cos(2 * math.pi * xs)
        data.write_text("x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(xs, ys)))
        out = tmp_path / "fit"
        assert run_cli(["gp", "--kernel", "sqexp", "--b", "0.2", "--sigma", "0.05",
                        "--data", str(data), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()


    def test_point_outside_kernel_domain_named_and_writes_nothing(self, tmp_path, capsys):
        # min(x, x') is a covariance on [0, 1] only; the fit refuses the point
        # before the run directory exists
        data = tmp_path / "obs.csv"
        data.write_text("x,y\n-0.005,0.1\n0.5,0.3\n0.9,-0.2\n")
        out = tmp_path / "o"
        assert run_cli(["gp", "--kernel", "brownian", "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "bayesinv: x must lie in [0, 1]\n"
        assert not out.exists()


class TestCalibrate:
    def test_perfectly_linear_dataset(self, tmp_path):
        data = tmp_path / "line.csv"
        data.write_text("x,y\n-1.0,0.0\n0.0,1.0\n1.0,2.0\n")
        out = tmp_path / "cal"
        code = run_cli(["calibrate", "--data", str(data), "--ynew", "2.0", "--out", str(out)])
        assert code == 0
        est = read_json(out / "estimates.json")
        assert_allclose(est["x_classical"], est["x_inverse"])
        assert est["f_stat"] == "inf"
        assert est["posterior_integral"] is None
        assert est["confidence_set"]["kind"] == "interval"

    def test_simulated_posterior_integrates_to_one(self, tmp_path):
        out = tmp_path / "cal"
        code = run_cli(["calibrate", "--n", "15", "--m", "1", "--beta-true", "2.0",
                        "--sigma-true", "1.0", "--x-true", "0.7", "--seed", "0",
                        "--out", str(out)])
        assert code == 0
        est = read_json(out / "estimates.json")
        assert abs(est["posterior_integral"] - 1.0) < 1e-6
        assert abs(est["posterior_mean"] - est["x_inverse"]) < 1e-5
        lines = (out / "posterior.csv").read_text().strip().splitlines()
        assert lines[0] == "x,density"

    def test_uninformative_set_flagged(self, tmp_path):
        out = tmp_path / "flat"
        code = run_cli(["calibrate", "--n", "15", "--beta-true", "0.01",
                        "--sigma-true", "5.0", "--seed", "3", "--out", str(out)])
        assert code == 0
        est = read_json(out / "estimates.json")
        assert est["confidence_set"]["kind"] == "whole_line"
        assert est["confidence_set"]["uninformative"] is True

    def test_multiple_new_responses_skip_confidence_set(self, tmp_path):
        out = tmp_path / "multi"
        code = run_cli(["calibrate", "--n", "12", "--m", "3", "--beta-true", "2.0",
                        "--x-true", "0.4", "--seed", "1", "--out", str(out)])
        assert code == 0
        est = read_json(out / "estimates.json")
        assert est["confidence_set"] is None
        assert est["sigma2_2"] is not None

    def test_ynew_required_with_data_file(self, tmp_path, capsys):
        data = tmp_path / "line.csv"
        data.write_text("x,y\n-1.0,0.0\n0.0,1.0\n1.0,2.0\n")
        code = run_cli(["calibrate", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "ynew" in capsys.readouterr().err


class TestInconsistency:
    def test_table_and_densities(self, tmp_path):
        out = tmp_path / "inc"
        start = time.time()
        code = run_cli(["inconsistency", "--theta", "1.0",
                        "--n-values", "100,1000,10000,100000",
                        "--seed", "0", "--out", str(out)])
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 60.0
        rows = (out / "table.csv").read_text().strip().splitlines()
        assert rows[0] == "n,posterior_sd,x_true"
        table = [row.split(",") for row in rows[1:]]
        sds = {int(r[0]): float(r[1]) for r in table}
        assert sds[100000] >= 0.5 * sds[100]
        for n in (100, 1000, 10000, 100000):
            lines = (out / f"density_n{n}.csv").read_text().strip().splitlines()
            assert lines[0] == "x,density,x_true"
            vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            assert np.all(np.diff(vals[:, 0]) > 0)
            assert np.all(vals[:, 1] >= 0.0)

    def test_manifest_records_merged_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": 2.0, "n_values": "100,1000", "curve_points": 64}))
        out = tmp_path / "inc"
        code = run_cli(["inconsistency", "--config", str(cfg), "--theta", "3.0",
                        "--seed", "4", "--out", str(out)])
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["params"]["theta"] == 3.0  # flag wins over config file
        assert manifest["params"]["n_values"] == "100,1000"  # config wins over default
        assert manifest["seed"] == 4
        assert manifest["command"] == "inconsistency"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = run_cli(["inconsistency", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["demo-linear", "--n", "30", "--seed", "2"],
    ["gp", "--kernel", "spline", "--n", "12", "--num-pred", "21", "--seed", "3"],
    ["calibrate", "--n", "15", "--curve-points", "51", "--seed", "0"],
    ["inconsistency", "--n-values", "100,1000", "--curve-points", "32", "--seed", "1"],
    ["coverage", "--n-reps", "40", "--seed", "5"],
    ["risk", "--n-reps", "40", "--seed", "5"],
])
def test_csv_outputs_follow_documented_contract(tmp_path, argv):
    # every cell is an integer literal or a float written with repr, and
    # every CSV carries the header FORMATS.md documents for it
    out = tmp_path / "run"
    assert run_cli(argv + ["--out", str(out)]) == 0
    documented = documented_csv_headers()[argv[0]]
    written = sorted(out.glob("*.csv"))
    assert all(any(re.fullmatch(p, f.name) for f in written) for p, _ in documented)
    for path in written:
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        expected = [cols for pattern, cols in documented if re.fullmatch(pattern, path.name)]
        assert expected == [header], path.name
        assert rows
        for cell in (cell for row in rows for cell in row):
            assert re.fullmatch(r"-?\d+", cell) or repr(float(cell)) == cell, (path.name, cell)


@pytest.mark.parametrize("command", ["coverage", "risk"])
def test_study_writes_documented_table(tmp_path, command):
    out = tmp_path / command
    assert run_cli([command, "--n-reps", "300", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "replications.csv",
                                                     "summary.json"]
    with open(out / "replications.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [header] == [cols for _, cols in documented_csv_headers()[command]]
    assert [int(r[0]) for r in rows] == list(range(300))
    if "covered" in header:
        covered = [int(r[3]) for r in rows]
        assert set(covered) <= {0, 1}
        assert read_json(out / "summary.json")["coverage"] == sum(covered) / 300
    assert read_json(out / "manifest.json")["params"]["n_reps"] == 300


def test_risk_ratio_without_denominator_is_null(tmp_path):
    # noise-free data give the inverse estimator an MSE of exactly 0
    out = tmp_path / "risk"
    assert run_cli(["risk", "--sigma", "0", "--n-reps", "20", "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["mse_inverse_half_over_full"] is None
    assert summary["max_over_median_abs_classical"] == 1.0


def test_only_cli_imports_argparse():
    # every command line goes through cli's one parameter table
    root = Path(__file__).resolve().parent.parent
    importers = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "scripts").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "argparse" in names:
                importers.append(path.relative_to(root).as_posix())
    assert importers == ["src/bayesinv/cli.py"]


def flag_surface(parser):
    """{command: [(option, dest, type name, choices)]}; argparse's default
    type (None) leaves the string as it is, so it is reported as str."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [(a.option_strings[-1], a.dest, a.type.__name__ if a.type else "str",
                   tuple(a.choices) if a.choices else None)
                  for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        for command, sp in sub.choices.items()
    }


def test_flag_surface_is_unchanged():
    run = [("--seed", "seed", "int", None), ("--out", "out", "str", None),
           ("--config", "config", "str", None)]
    assert flag_surface(cli.build_parser()) == {
        "demo-linear": run + [
            ("--kernel", "kernel", "str",
             ("deblur", "seismic", "gravity", "diffraction", "groundwater")),
            ("--prior", "prior", "str",
             ("smooth-interior", "smooth-zero", "smooth-soft", "nonsmooth")),
            ("--truth", "truth", "str", ("smooth", "step")),
            ("--n", "n", "int", None),
            ("--sigma", "sigma", "float", None),
            ("--tilde-sigma", "tilde_sigma", "float", None),
            ("--psi", "psi", "float", None),
            ("--height", "height", "float", None),
            ("--diffusion", "diffusion", "float", None),
            ("--velocity", "velocity", "float", None),
            ("--x-obs", "x_obs", "float", None),
            ("--t-max", "t_max", "float", None),
        ],
        "gp": run + [
            ("--kernel", "kernel", "str", ("ou", "sqexp", "brownian", "spline")),
            ("--b", "b", "float", None),
            ("--variance", "variance", "float", None),
            ("--n", "n", "int", None),
            ("--sigma", "sigma", "float", None),
            ("--data", "data", "str", None),
            ("--num-pred", "num_pred", "int", None),
        ],
        "calibrate": run + [
            ("--data", "data", "str", None),
            ("--ynew", "ynew", "str", None),
            ("--n", "n", "int", None),
            ("--m", "m", "int", None),
            ("--alpha-true", "alpha_true", "float", None),
            ("--beta-true", "beta_true", "float", None),
            ("--sigma-true", "sigma_true", "float", None),
            ("--x-true", "x_true", "float", None),
            ("--level", "level", "float", None),
            ("--curve-points", "curve_points", "int", None),
        ],
        "inconsistency": run + [
            ("--theta", "theta", "float", None),
            ("--n-values", "n_values", "str", None),
            ("--curve-points", "curve_points", "int", None),
        ],
        "coverage": run + [
            ("--n-reps", "n_reps", "int", None),
            ("--beta-true", "beta_true", "float", None),
            ("--sigma", "sigma", "float", None),
            ("--n", "n", "int", None),
            ("--alpha", "alpha", "float", None),
            ("--x-true", "x_true", "float", None),
        ],
        "risk": run + [
            ("--n-reps", "n_reps", "int", None),
            ("--beta-true", "beta_true", "float", None),
            ("--sigma", "sigma", "float", None),
            ("--n", "n", "int", None),
            ("--x-true", "x_true", "float", None),
        ],
    }


@pytest.mark.parametrize("command,file_cfg,message", [
    ("demo-linear", {"kernel": "banana"}, "config key 'kernel'"),
    ("gp", {"kernel": "banana"}, "config key 'kernel'"),
    ("demo-linear", {"prior": "banana"}, "config key 'prior'"),
    ("demo-linear", {"sigma": "0.1"}, "config key 'sigma'"),
    ("demo-linear", {"n": 20.5}, "config key 'n'"),
    ("demo-linear", {"n": True}, "config key 'n'"),
    ("demo-linear", {"seed": "abc"}, "config key 'seed'"),
    ("demo-linear", {"out": 5}, "config key 'out'"),
    ("demo-linear", [1, 2], "not a JSON object"),
    ("coverage", {"n_reps": 300.0}, "config key 'n_reps'"),
    ("risk", {"x_true": "0.5"}, "config key 'x_true'"),
])
def test_config_value_the_flag_would_reject_writes_nothing(tmp_path, capsys, command,
                                                             file_cfg, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["demo-linear", "--psi", "nan"], "psi must be positive and finite, got nan"),
    (["gp", "--b", "nan"], "b must be positive and finite, got nan"),
    (["inconsistency", "--theta", "nan"], "theta_true must be positive and finite, got nan"),
    (["demo-linear", "--psi", "1e-200"], "psi = 1e-200 under- or overflows in the arithmetic on it"),
    (["gp", "--kernel", "sqexp", "--b", "1e-200"],
     "b = 1e-200 under- or overflows in the arithmetic on it"),
    (["demo-linear", "--kernel", "groundwater", "--diffusion", "5e-324"],
     "D = 5e-324 under- or overflows in the arithmetic on it"),
    (["calibrate", "--m", "3", "--level", "nan"], "level must lie in (0, 1), got nan"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_flag_named_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"bayesinv: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gp", "--num-pred", "-1"], "num_pred must be an integer >= 1, got -1"),
    (["gp", "--num-pred", "0"], "num_pred must be an integer >= 1, got 0"),
    (["calibrate", "--curve-points", "-1"], "curve_points must be an integer >= 2, got -1"),
    (["calibrate", "--curve-points", "1"], "curve_points must be an integer >= 2, got 1"),
    (["inconsistency", "--curve-points", "-1"], "curve_points must be an integer >= 2, got -1"),
    (["inconsistency", "--curve-points", "1"], "curve_points must be an integer >= 2, got 1"),
    (["coverage", "--n-reps", "0"], "n_reps must be an integer >= 1, got 0"),
    (["risk", "--n-reps", "1"], "n_reps must be an integer >= 2, got 1"),
    (["risk", "--n", "2"], "n must be an integer >= 3, got 2"),
    (["coverage", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["risk", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["calibrate", "--m", "1", "--level", "2"], "level must lie in (0, 1), got 2.0"),
    (["calibrate", "--m", "3", "--level", "2"], "level must lie in (0, 1), got 2.0"),
])
def test_size_flag_out_of_range_named_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"bayesinv: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_negative_seed_named_and_writes_nothing(tmp_path, capsys, command):
    # checked once where the run's settings are merged, before numpy sees it
    out = tmp_path / "o"
    assert run_cli([command, "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "bayesinv: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--ynew", "5"], "--ynew is used only when --data is given"),
    (["calibrate", "--data", "{data}", "--ynew", "1,abc"],
     "ynew must be a comma-separated list of floats, got '1,abc'"),
    (["inconsistency", "--n-values", "100,1e3"],
     "n_values must be a comma-separated list of ints, got '100,1e3'"),
    (["inconsistency", "--n-values", ""],
     "n_values must be a comma-separated list of ints, got ''"),
    (["inconsistency", "--theta", "0.5", "--n-values", "3", "--seed", "12"],
     "n_values gives n = 3 a posterior with no finite variance: sum(y) - y[held] = 2, needs > 2"),
])
def test_list_flag_named_and_writes_nothing(tmp_path, capsys, argv, message):
    data = tmp_path / "line.csv"
    data.write_text("x,y\n-1.0,0.0\n0.0,1.0\n1.0,2.0\n")
    out = tmp_path / "o"
    assert run_cli([arg.format(data=data) for arg in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"bayesinv: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["gp"], ["calibrate", "--ynew", "1.0"]])
@pytest.mark.parametrize("text, message", [
    ("x,y\n0.1,0.2\n0.3\n", "line 3: expected 2 values, got 1"),
    ("x,y\n0.1,0.2\n0.3,abc\n", "line 3: could not convert string to float: 'abc'"),
])
def test_bad_data_row_names_file_and_line_and_writes_nothing(tmp_path, capsys, command, text,
                                                             message):
    data, out = tmp_path / "obs.csv", tmp_path / "o"
    data.write_text(text)
    assert run_cli([*command, "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"bayesinv: {data}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["gp"], "x must hold at least one training input"),
    (["calibrate", "--ynew", "1.0"], "x must be 1-d with n >= 3 training pairs, got shape (0,)"),
])
def test_header_only_data_reaches_the_fit_and_writes_nothing(tmp_path, capsys, command, message):
    data, out = tmp_path / "obs.csv", tmp_path / "o"
    data.write_text("x,y\n")
    assert run_cli([*command, "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"bayesinv: {message}\n"
    assert not out.exists()


def snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("first, second, others", [
    (["inconsistency", "--n-values", "100,1000"], ["inconsistency", "--n-values", "200"],
     "density_n100.csv, density_n1000.csv"),
    # the second fit is degenerate, so it writes no posterior.csv
    (["calibrate", "--n", "10", "--curve-points", "21"],
     ["calibrate", "--data", "{data}", "--ynew", "2.0"], "posterior.csv"),
])
def test_reused_out_holding_other_files_exits_and_keeps_them(tmp_path, capsys, first, second,
                                                             others):
    data = tmp_path / "line.csv"
    data.write_text("x,y\n0.0,1.0\n1.0,3.0\n2.0,5.0\n")
    out = tmp_path / "run"
    assert run_cli(first + ["--out", str(out)]) == 0
    before = snapshot(out)
    assert run_cli([arg.format(data=data) for arg in second] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"bayesinv: out {out} holds files this run does not "
                                       f"write: {others}; pass a new or empty directory\n")
    assert snapshot(out) == before


def test_same_arguments_rerun_into_its_own_directory(tmp_path):
    out = tmp_path / "run"
    argv = ["inconsistency", "--n-values", "100,1000", "--seed", "3", "--out", str(out)]
    assert run_cli(argv) == 0
    before = snapshot(out)
    assert run_cli(argv) == 0
    assert snapshot(out) == before


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_through_a_file_exits_and_keeps_it(tmp_path, capsys, below):
    target = tmp_path / "file"
    target.write_text("keep\n")
    out = target / below if below else target
    assert run_cli(["gp", "--n", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"bayesinv: out {out} cannot be made a directory: ")
    assert target.read_text() == "keep\n"


# each command's last numerical call, and a small run of the command
LATE_CALLS = {
    "demo-linear": (lp, "posterior_sd", ["--n", "20"]),
    "gp": (gr, "gp_predict_curve", ["--n", "8", "--num-pred", "11"]),
    "calibrate": (ir.Density1D, "pdf", ["--n", "12", "--curve-points", "21"]),
    "inconsistency": (ir.Density1D, "pdf", ["--n-values", "100", "--curve-points", "16"]),
    "coverage": (ir, "coverage_experiment", ["--n-reps", "5"]),
    "risk": (ir, "estimator_risk_experiment", ["--n-reps", "5"]),
}


@pytest.mark.parametrize("command", LATE_CALLS)
def test_late_numerical_failure_writes_nothing(tmp_path, capsys, monkeypatch, command):
    # a command computes everything before its run is written, so a failure
    # in its last step leaves no directory (and no manifest beside old files)
    owner, name, argv = LATE_CALLS[command]

    def fail(*args, **kwargs):
        raise ValueError("late failure")

    monkeypatch.setattr(owner, name, fail)
    out = tmp_path / "o"
    assert run_cli([command, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "bayesinv: late failure\n"
    assert not out.exists()


def test_handlers_return_their_files_and_write_nothing():
    # only _write_run creates, names or opens a path under the output directory
    tree = ast.parse((SRC / "cli.py").read_text())
    handlers = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    assert sorted(fn.name for fn in handlers) == sorted(f.__name__ for f in cli.HANDLERS.values())
    for fn in handlers:
        used = {node.attr if isinstance(node, ast.Attribute) else node.id
                for node in ast.walk(fn) if isinstance(node, (ast.Attribute, ast.Name))}
        assert used & {"output_dir", "open", "mkdir", "write_csv", "_write_run"} == set(), fn.name


def test_only_cli_writes_csv_and_only_serializers_save_matrices():
    # the per-command file contracts live in cli alone; the numerical modules do no IO
    importers = {"csvio": [], "write_csv": [], "_save_matrix": [], "_load_matrix": []}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.name.rsplit(".", 1)[-1]
                    if name in importers:
                        importers[name].append(path.name)
    assert importers == {
        "csvio": [],
        "write_csv": ["cli.py"],
        "_save_matrix": ["fd_priors.py", "forward_ops.py"],
        "_load_matrix": ["fd_priors.py", "forward_ops.py"],
    }


def test_config_integer_for_float_parameter_kept_as_given(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 2, "n_values": "100,1000", "curve_points": 16}))
    out = tmp_path / "inc"
    assert run_cli(["inconsistency", "--config", str(cfg), "--out", str(out)]) == 0
    theta = read_json(out / "manifest.json")["params"]["theta"]
    assert theta == 2 and isinstance(theta, int)


def readme_cli_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("bayesinv ")]


def test_readme_cli_commands_parse():
    commands = readme_cli_commands()
    assert sorted({argv[0] for argv in commands}) == sorted(cli.DEFAULTS)
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["band"].shape == (100,) and np.all(namespace["band"] > 0)


def fresh_interpreter_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_successive_main_calls_write_what_fresh_calls_write(tmp_path):
    # the parser is built once per process and shared by every main call
    argvs = {
        "gp": ["gp", "--kernel", "sqexp", "--n", "12", "--seed", "3"],
        "calibrate": ["calibrate", "--n", "10", "--curve-points", "21"],
    }
    for name, argv in argvs.items():
        assert cli.main([*argv, "--out", str(tmp_path / "warm" / name)]) == 0
    for name, argv in argvs.items():
        subprocess.run([sys.executable, "-m", "bayesinv.cli", *argv,
                        "--out", str(tmp_path / "fresh" / name)],
                       env=fresh_interpreter_env(), check=True, timeout=120)
        warm = (tmp_path / "warm" / name / "manifest.json").read_bytes()
        assert warm == (tmp_path / "fresh" / name / "manifest.json").read_bytes()


def test_import_leaves_scipy_stats_unloaded():
    code = ("import sys, bayesinv.cli; "
            "print([m in sys.modules for m in ('scipy.stats', 'scipy.integrate')])")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=fresh_interpreter_env(), capture_output=True, text=True, check=True, timeout=120,
    )
    assert proc.stdout.strip() == "[False, False]"
