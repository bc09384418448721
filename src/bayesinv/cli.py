"""Command-line front door: demo problems, GP fits, calibration, the
posterior non-contraction experiment, and the Monte Carlo coverage and risk
studies of the calibration estimators, all emitting CSV/JSON artifacts.

Each command computes everything and returns its files; ``_write_run`` then
writes manifest.json (the merged configuration, the seed, and the package
version) and those files, so a failed run writes nothing. Identical manifests
reproduce byte-identical CSV outputs. Flag values override config-file values,
which override the built-in defaults. See FORMATS.md for the file contracts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import _checks as check
from . import fd_priors, forward_ops, gp_rkhs, inverse_regression, linear_posterior
from .csvio import read_csv, write_csv

# Each command's parameters and their defaults: the manifest's params, the
# config-file keys, and the flags (--a-b sets a_b; the type is the default's,
# str where it is None; selectors take the keys of their SELECTORS table).
DEFAULTS = {
    "demo-linear": {
        "kernel": "deblur",
        "prior": "smooth-zero",
        "truth": "smooth",
        "n": 100,
        "sigma": 0.01,
        "tilde_sigma": 0.01,
        "psi": 0.05,
        "height": 1.0,
        "diffusion": 0.5,
        "velocity": 1.0,
        "x_obs": 1.0,
        "t_max": 1.0,
    },
    "gp": {
        "kernel": "ou",
        "b": 1.0,
        "variance": 1.0,
        "n": 20,
        "sigma": 0.1,
        "data": None,
        "num_pred": 201,
    },
    "calibrate": {
        "data": None,
        "ynew": None,
        "n": 30,
        "m": 1,
        "alpha_true": 0.0,
        "beta_true": 2.0,
        "sigma_true": 1.0,
        "x_true": 1.0,
        "level": 0.05,
        "curve_points": 2001,
    },
    "inconsistency": {
        "theta": 1.0,
        "n_values": "100,1000,10000,100000",
        "curve_points": 512,
    },
    "coverage": {
        "n_reps": 10000,
        "beta_true": 5.0,
        "sigma": 1.0,
        "n": 30,
        "alpha": 0.05,
        "x_true": 1.0,
    },
    "risk": {
        "n_reps": 10000,
        "beta_true": 1.0,
        "sigma": 1.0,
        "n": 20,
        "x_true": 0.5,
    },
}
# settings every command takes, as a flag or a config key, outside the params
RUN_DEFAULTS = {"seed": 0, "out": None}


@dataclass
class ExperimentConfig:
    command: str
    seed: int
    output_dir: Path
    params: dict = field(default_factory=dict)


def _write_run(cfg: ExperimentConfig, outputs: dict) -> None:
    """Create the run's directory and write manifest.json, then each output in order.

    A ``.csv`` output is a ``(header, columns)`` pair for ``write_csv``; a
    ``.json`` output is the dict to dump. The directory may already exist
    only if it holds nothing but files of this run's names, so a run never
    lands beside another run's files; nothing is ever deleted.
    """
    out = cfg.output_dir
    if out.is_dir():
        others = sorted({p.name for p in out.iterdir()} - {"manifest.json", *outputs})
        if others:
            raise ValueError(f"out {out} holds files this run does not write: "
                             f"{', '.join(others)}; pass a new or empty directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # out, or a path above it, names a file
        raise ValueError(f"out {out} cannot be made a directory: {exc.strerror}") from None
    manifest = {"command": cfg.command, "seed": cfg.seed, "package_version": __version__,
                "params": cfg.params}
    for name, content in {"manifest.json": manifest, **outputs}.items():
        if name.endswith(".csv"):
            write_csv(out / name, *content)
        else:
            with open(out / name, "w") as fh:
                fh.write(json.dumps(content, indent=2, sort_keys=True) + "\n")


def _comma_list(key: str, value: str, kind: type) -> list:
    """The items of a comma-separated parameter, each read by ``kind``."""
    try:
        return [kind(v) for v in value.split(",")]
    except ValueError:
        raise ValueError(f"{key} must be a comma-separated list of {kind.__name__}s, "
                         f"got '{value}'") from None


def _grid(a: float, b: float, p: dict) -> forward_ops.Grid:
    return forward_ops.Grid(a, b, int(p["n"]))


# name -> builder, one table per selector parameter; the CLI's choices come
# from these keys, in this order
OPERATORS = {
    "deblur": lambda p: forward_ops.make_gaussian_blur(_grid(0.0, 1.0, p), p["psi"]),
    "seismic": lambda p: forward_ops.make_travel_time(_grid(0.0, 1.0, p)),
    "gravity": lambda p: forward_ops.make_gravity(_grid(-5.0, 5.0, p), p["height"]),
    "diffraction": lambda p: forward_ops.make_diffraction(_grid(-math.pi / 2.0, math.pi / 2.0, p)),
    "groundwater": lambda p: forward_ops.make_groundwater(
        _grid(0.0, p["t_max"], p), p["diffusion"], p["velocity"], p["x_obs"], p["t_max"]
    ),
}
PRIORS = {
    "smooth-interior": fd_priors.build_smooth_interior,
    "smooth-zero": fd_priors.build_smooth_zero_boundary,
    "smooth-soft": fd_priors.build_smooth_soft_boundary,
    "nonsmooth": fd_priors.build_nonsmooth,
}
# truths take the grid nodes mapped onto [0, 1]
TRUTHS = {
    "smooth": lambda u: np.sin(2.0 * math.pi * u),
    "step": lambda u: np.where(u < 0.5, 0.2, 1.0),
}
GP_KERNELS = {
    "ou": lambda p: gp_rkhs.ou_kernel(p["b"]),
    "sqexp": lambda p: gp_rkhs.squared_exponential_kernel(p["b"]),
    "brownian": lambda p: gp_rkhs.integrated_wiener_kernel(0, p["variance"]),
    "spline": lambda p: gp_rkhs.integrated_wiener_kernel(1, p["variance"]),
}
SELECTORS = {
    "demo-linear": {"kernel": OPERATORS, "prior": PRIORS, "truth": TRUTHS},
    "gp": {"kernel": GP_KERNELS},
}


def cmd_demo_linear(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    op = OPERATORS[p["kernel"]](p)
    grid = op.col_grid
    prior = PRIORS[p["prior"]](grid.n, p["tilde_sigma"])
    truth = TRUTHS[p["truth"]]((grid.nodes - grid.a) / (grid.b - grid.a))
    y = forward_ops.simulate_data(op, truth, p["sigma"], cfg.seed)
    post = linear_posterior.fit(op, prior, y, p["sigma"])
    sd = linear_posterior.posterior_sd(post)
    return {
        "truth.csv": (["x", "theta_true"], [grid.nodes, truth]),
        "data.csv": (["x", "y"], [op.row_grid.nodes, y]),
        "posterior.csv": (["x", "mean", "lower", "upper"],
                          [grid.nodes, post.mean, post.mean - 2 * sd, post.mean + 2 * sd]),
        "summary.json": {
            "rmse_map": float(np.sqrt(np.mean((post.mean - truth) ** 2))),
            "rmse_data": float(np.sqrt(np.mean((y - truth) ** 2))),
            "objective_at_map": linear_posterior.tikhonov_objective(post, post.mean, y),
        },
    }


def cmd_gp(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    num_pred = check.count("num_pred", p["num_pred"], 1)
    kernel = GP_KERNELS[p["kernel"]](p)
    if p["data"] is not None:
        # the C-order copy keeps each column contiguous for the BLAS calls
        xs, ys = read_csv(p["data"], ["x", "y"]).T.copy()
    else:
        rng = np.random.default_rng(cfg.seed)
        xs = np.sort(rng.uniform(0.02, 0.98, int(p["n"])))
        ys = np.sin(2.0 * math.pi * xs) + p["sigma"] * rng.standard_normal(xs.size)
    fit = gp_rkhs.gp_fit(xs, ys, kernel, p["sigma"])
    # representer identity: the fit's predictive means at the training points
    # against exactly rounded sum_j c_j K(x_i, x_j)
    terms = gp_rkhs.gram(kernel, xs) * fit.coefficients
    means_at_xs = gp_rkhs.gp_predict_curve(fit, xs)[0]
    resid = float(np.max(np.abs(means_at_xs - [math.fsum(row) for row in terms])))
    grid = np.linspace(0.0, 1.0, num_pred)
    means, variances = gp_rkhs.gp_predict_curve(fit, grid)
    return {
        "curve.csv": (["x", "mean", "sd"], [grid, means, np.sqrt(variances)]),
        "data.csv": (["x", "y"], [xs, ys]),
        "summary.json": {
            "representer_residual_max": resid,
            "condition_estimate": fit.condition_estimate,
            "ill_conditioned": bool(fit.ill_conditioned),
        },
    }


def cmd_calibrate(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    if not 0.0 < p["level"] < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {p['level']}")
    curve_points = check.count("curve_points", p["curve_points"], 2)
    if p["data"] is not None:
        xs, ys = read_csv(p["data"], ["x", "y"]).T.copy()
        if p["ynew"] is None:
            raise ValueError("--ynew is required when --data is given")
        y_new = _comma_list("ynew", p["ynew"], float)
        data = inverse_regression.make_calibration_data(xs, ys, y_new)
    elif p["ynew"] is not None:
        raise ValueError("--ynew is used only when --data is given")
    else:
        data = inverse_regression.simulate_calibration(
            int(p["n"]), int(p["m"]), p["alpha_true"], p["beta_true"],
            p["sigma_true"], p["x_true"], cfg.seed,
        )
    est = inverse_regression.fit_calibration(data)
    payload = dict(vars(est), f_stat=est.f_stat if math.isfinite(est.f_stat) else "inf")
    if data.m == 1:
        cset = inverse_regression.confidence_set(est, p["level"])
        payload["confidence_set"] = {
            "kind": cset.kind,
            "lower": cset.lower,
            "upper": cset.upper,
            "alpha": cset.alpha,
            "uninformative": cset.uninformative,
        }
    else:
        payload["confidence_set"] = None
        payload["confidence_set_note"] = "the set inversion applies to m = 1 only"
    outputs = {}
    if math.isfinite(est.f_stat) and data.n >= 4:
        prior = inverse_regression.hoadley_informative_prior(data.n)
        posterior = inverse_regression.hoadley_posterior(data, prior)
        grid = np.linspace(*posterior.window, curve_points)
        dens = posterior.pdf(grid)
        outputs["posterior.csv"] = (["x", "density"], [grid, dens])
        payload["posterior_integral"] = float(np.trapezoid(dens, grid))
        payload["posterior_mean"] = posterior.mean()
    else:
        payload["posterior_integral"] = None
        payload["posterior_note"] = "degenerate fit: posterior curve not written"
    return {**outputs, "estimates.json": payload}


def cmd_inconsistency(cfg: ExperimentConfig) -> dict:
    p = cfg.params
    curve_points = check.count("curve_points", p["curve_points"], 2)
    n_values = _comma_list("n_values", p["n_values"], int)
    rows = inverse_regression.inconsistency_experiment(p["theta"], n_values, cfg.seed)
    outputs = {"table.csv": (["n", "posterior_sd", "x_true"],
                             [[row.n for row in rows], [row.posterior_sd for row in rows],
                              [row.x_true for row in rows]])}
    for row in rows:
        lo = max(row.posterior.window[0], 1e-9)
        hi = row.posterior.exact_mean + 6.0 * row.posterior_sd
        grid = np.linspace(lo, hi, curve_points)
        dens = row.posterior.pdf(grid)
        outputs[f"density_n{row.n}.csv"] = (["x", "density", "x_true"],
                                             [grid, dens, row.x_true])
    ratio = rows[-1].posterior_sd / rows[0].posterior_sd
    return {**outputs, "summary.json": {"sd_ratio_last_over_first": ratio}}


def cmd_coverage(cfg: ExperimentConfig) -> dict:
    res = inverse_regression.coverage_experiment(**cfg.params, seed=cfg.seed)
    return {
        "replications.csv": (
            ["replication", "x_classical", "x_inverse", "covered"],
            [np.arange(res.covered.size), res.x_classical, res.x_inverse, res.covered.astype(int)],
        ),
        "summary.json": {"coverage": res.coverage},
    }


def _ratio(num: float, den: float):
    """num / den, or None (JSON null) where noise-free data make den zero."""
    return num / den if den else None


def cmd_risk(cfg: ExperimentConfig) -> dict:
    res = inverse_regression.estimator_risk_experiment(**cfg.params, seed=cfg.seed)
    return {
        "replications.csv": (["replication", "x_classical", "x_inverse"],
                             [np.arange(res.x_inverse.size), res.x_classical, res.x_inverse]),
        "summary.json": {
            "mse_inverse_half_over_full": _ratio(res.mse_inverse_half, res.mse_inverse_full),
            "max_over_median_abs_classical": _ratio(res.max_abs_classical,
                                                    res.median_abs_classical),
        },
    }


HANDLERS = {
    "demo-linear": cmd_demo_linear,
    "gp": cmd_gp,
    "calibrate": cmd_calibrate,
    "inconsistency": cmd_inconsistency,
    "coverage": cmd_coverage,
    "risk": cmd_risk,
}
HELP = {
    "demo-linear": "simulate, fit, and export a linear inverse problem",
    "gp": "Gaussian-process regression on supplied or simulated data",
    "calibrate": "inverse linear regression estimates and posteriors",
    "inconsistency": "posterior non-contraction table and curves",
    "coverage": "Monte Carlo coverage of the calibration confidence set",
    "risk": "Monte Carlo risk of the classical and inverse covariate estimators",
}


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesinv",
        description="Synthetic-data demos and Monte Carlo experiments for "
        "Bayesian inverse problems and inverse regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, params in DEFAULTS.items():
        sp = sub.add_parser(command, help=HELP[command])
        tables = SELECTORS.get(command, {})
        # --config names the file of settings; it is not a setting itself
        for key, default in {**RUN_DEFAULTS, "config": None, **params}.items():
            sp.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=str if default is None else type(default),
                choices=tables.get(key),
            )
    return parser


def _check_config_value(key: str, value, default, table) -> None:
    """Accept a config-file value exactly where its flag would accept it."""
    if table is not None:
        expected, ok = "one of " + ", ".join(table), isinstance(value, str) and value in table
    elif isinstance(default, float):
        expected, ok = "a number", isinstance(value, (int, float))
    elif isinstance(default, int):
        expected, ok = "an integer", isinstance(value, int)
    elif default is None:
        expected, ok = "a string or null", value is None or isinstance(value, str)
    else:
        expected, ok = "a string", isinstance(value, str)
    if isinstance(value, bool) or not ok:
        raise ValueError(f"config key '{key}': expected {expected}, got {json.dumps(value)}")


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    command = args.command
    settings = {**RUN_DEFAULTS, **DEFAULTS[command]}
    if args.config is not None:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} is not a JSON object")
        unknown = set(file_cfg) - set(settings)
        if unknown:
            raise ValueError(f"unknown config keys for '{command}': {sorted(unknown)}")
        tables = SELECTORS.get(command, {})
        for key, value in file_cfg.items():
            _check_config_value(key, value, settings[key], tables.get(key))
        settings.update(file_cfg)
    for key in settings:
        cli_val = getattr(args, key)
        if cli_val is not None:
            settings[key] = cli_val
    seed = check.count("seed", settings.pop("seed"), 0)
    out = settings.pop("out")
    if out is None:
        out = f"runs/{command}"
    return ExperimentConfig(command, seed, Path(out), settings)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        _write_run(cfg, HANDLERS[cfg.command](cfg))
    except FileNotFoundError as exc:
        print(f"bayesinv: cannot read input file: {exc}", file=sys.stderr)
        return 1
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"bayesinv: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
