"""The input-validation contract of the public entry points.

Every public function either returns finite output or raises ``ValueError``
(or ``LinAlgError``) with a message naming the offending parameter. The
checks live in ``bayesinv._checks``; no other module spells the policy out.
"""

import dataclasses
import math
import re
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesinv import fd_priors as fp
from bayesinv import forward_ops as fo
from bayesinv import gp_rkhs as gr
from bayesinv import inverse_regression as ir
from bayesinv import linear_posterior as lp
from bayesinv import spline as sp

SRC = Path(__file__).resolve().parent.parent / "src" / "bayesinv"
NAN, INF = math.nan, math.inf

# ---------------------------------------------------------------------------
# the leaks the shared checks closed: each gave NaN, a wrong answer, or an
# error that did not name the parameter
# ---------------------------------------------------------------------------

GRID = fo.Grid(0.0, 1.0, 5)
BLUR = fo.make_gaussian_blur(GRID, 0.2)
ROOT = fp.build_nonsmooth(5)
POST = lp.fit(fo.make_identity(GRID), ROOT, np.ones(5), 1.0)

LEAKS = [
    ("sigma", lambda: fo.simulate_data(BLUR, np.ones(5), NAN, 0)),
    ("sigma", lambda: ir.coverage_experiment(20, 5.0, NAN, 30, 0.05, 1.0, 0)),
    ("x_true", lambda: ir.coverage_experiment(20, 5.0, 1.0, 30, 0.05, NAN, 0)),
    ("sigma", lambda: ir.estimator_risk_experiment(20, 1.0, INF, 20, 0.5, 0)),
    ("b", lambda: fo.Grid(0.0, INF, 5)),
    ("n", lambda: fo.Grid(0.0, 1.0, 2.5)),
    ("count", lambda: gr.nystrom_eigen(gr.brownian_motion_kernel(), 10, -1, 0)),
    ("b", lambda: gr.spectral_kernel([1.0, INF], [0.0, 1.0])),
    ("tau_grid", lambda: gr.spectral_kernel([1.0, 1.0], [0.0, NAN])),
    ("n", lambda: ir.hoadley_informative_prior(NAN)),
    ("tilde_sigma", lambda: fp.build_nonsmooth(5, INF)),
    ("theta", lambda: fp.prior_log_density(ROOT, [0.0, NAN, 0.0, 0.0, 0.0])),
    ("theta", lambda: gr.penalty_quadratic_form([1.0, 1.0], [0.0, NAN, 0.0, 0.0])),
    ("theta_coeffs", lambda: gr.rkhs_norm_truncated([NAN, 1.0], [1.0, 0.5])),
    ("psi", lambda: fo.make_gaussian_blur(GRID, NAN)),
    ("h", lambda: fo.make_gravity(GRID, INF)),
    ("D", lambda: fo.make_groundwater(GRID, NAN, 1.0, 1.0, 1.0)),
    ("b", lambda: gr.gp_fit([0.1, 0.5], [0.0, 1.0], gr.ou_kernel(NAN), 0.1)),
    ("x_all", lambda: ir.poisson_xval_posterior([NAN, 1.0, 1.0], [3, 2, 4], 1)),
    ("theta_true", lambda: ir.inconsistency_experiment(NAN, [100], 0)),
    ("k", lambda: lp.sample(POST, 2.5, 0)),
    ("x_star", lambda: gr.gp_predict(gr.gp_fit([0.2, 0.5, 0.8], [0, 1, 0],
                                               gr.brownian_motion_kernel(), 0.1), -1.0)),
    # finite values whose arithmetic under- or overflows
    ("psi", lambda: fo.make_gaussian_blur(GRID, 1e-170)),
    ("h", lambda: fo.make_gravity(GRID, 1e-170)),
    ("b", lambda: gr.squared_exponential_kernel(1e-170)),
    ("b", lambda: gr.squared_exponential_kernel(1e-160, 3)),
    ("b", lambda: gr.ou_kernel(1e-320)),
    ("b", lambda: fo.Grid(-1e308, 1e308, 5)),
    ("n_values", lambda: ir.inconsistency_experiment(0.5, [3], 12)),
    ("D", lambda: fo.make_groundwater(GRID, 5e-324, 1.0, 1.0, 1.0)),
    ("x_obs", lambda: fo.make_groundwater(GRID, 0.5, 1.0, 1e308, 1.0)),
    ("seed", lambda: ir.coverage_experiment(20, 5.0, 1.0, 30, 0.05, 1.0, -1)),
    ("seed", lambda: ir.coverage_experiment(20, 5.0, 1.0, 30, 0.05, 1.0, 2.5)),
    ("seed", lambda: ir.estimator_risk_experiment(20, 1.0, 1.0, 20, 0.5, -1)),
    ("seed", lambda: ir.estimator_risk_experiment(20, 1.0, 1.0, 20, 0.5, 2.5)),
    ("seed", lambda: lp.sample(POST, 2, -1)),
    ("seed", lambda: lp.sample(POST, 2, 1.5)),
    ("seed", lambda: fo.simulate_data(BLUR, np.ones(5), 0.1, -1)),
    ("seed", lambda: gr.nystrom_eigen(gr.brownian_motion_kernel(), 10, 2, -1)),
    ("seed", lambda: ir.inconsistency_experiment(1.0, [100], -1)),
    # fewer knots than trend coefficients left the trend's GLS singular
    ("x", lambda: sp.spline_fit([0.5], [1.0], 0.1, 1.0, m_order=2)),
    ("x", lambda: sp.spline_fit([0.3, 0.6], [1.0, 0.0], 0.1, 1.0, m_order=3)),
    # a 2-d input is named as such, on the chain and the dense path alike
    ("x", lambda: gr.gp_fit(np.full((4, 2), 0.5), np.ones(4), gr.brownian_motion_kernel(), 0.1)),
    *[("xs", lambda kern=kern: gr.gp_predict_curve(gr.gp_fit([0.1, 0.4], [0.0, 1.0], kern, 0.1),
                                                    np.full((2, 2), 0.5)))
      for kern in (gr.ou_kernel(1.0), gr.squared_exponential_kernel(0.3))],
    ("x_star", lambda: sp.spline_predict(sp.spline_fit([0.2, 0.5, 0.8], [0.0, 1.0, 0.0], 0.1, 1.0),
                                         np.full((2, 2), 0.5))),
    # points of another rank: a bare IndexError at 0-d, a 4-d array at 3-d
    ("points", lambda: gr.gram(gr.ou_kernel(1.0), 0.5)),
    ("points", lambda: gr.gram(gr.ou_kernel(1.0), np.full((2, 2, 2), 0.5))),
]


@pytest.mark.parametrize("name, call", LEAKS, ids=[f"{i}-{name}" for i, (name, _) in enumerate(LEAKS)])
def test_closed_leak_raises_naming_parameter(name, call):
    # the check runs before the arithmetic, so no numpy warning escapes either
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{name} "):
            call()


# ---------------------------------------------------------------------------
# boundary test: one hypothesis run per (entry point, numeric parameter)
# ---------------------------------------------------------------------------

SPECIAL = [NAN, INF, -INF, 0.0, -1.0]
SCALAR = st.sampled_from(SPECIAL)
COUNT = st.sampled_from([NAN, INF, 0, -1, 2.5])


def _array(valid):
    """``valid`` with one entry replaced by a special value, or of another length."""
    valid = np.asarray(valid, dtype=float)

    def replace(i, v):
        out = valid.copy()
        out.flat[i] = v
        return out

    other_lengths = [valid[:0], valid[:-1], np.concatenate([valid, valid[-1:]])]
    return st.one_of(st.builds(replace, st.integers(0, valid.size - 1), SCALAR),
                     st.sampled_from(other_lengths))


OU = gr.ou_kernel(1.0)
BM = gr.brownian_motion_kernel()
GP_FIT = gr.gp_fit([0.1, 0.4, 0.7], [0.0, 1.0, 0.0], BM, 0.1)
SPLINE_FIT = sp.spline_fit([0.2, 0.5, 0.8], [0.0, 1.0, 0.0], 0.1, 1.0)
EST = ir.fit_calibration(ir.simulate_calibration(12, 1, 0.0, 2.0, 1.0, 0.5, 3))
DENSITY = ir.Density1D(lambda t: -0.5 * t * t, (-INF, INF))
SMOOTH = fp.build_smooth_zero_boundary(5)
UNIT = np.linspace(0.0, 1.0, 4)
A, S, C = "array", "scalar", "count"


def case(call, **params):
    """``call`` and, per numeric parameter, (valid value, A/S/C or a strategy)."""
    return call, params


CASES = {
    "Grid": case(lambda a, b, n: fo.Grid(a, b, n).nodes, a=(0.0, S), b=(1.0, S), n=(5, C)),
    "ForwardOperator": case(lambda matrix: fo.ForwardOperator(matrix, GRID, GRID, "custom"),
                            matrix=(np.eye(5), A)),
    "make_gaussian_blur": case(lambda psi: fo.make_gaussian_blur(GRID, psi), psi=(0.2, S)),
    "make_gravity": case(lambda h: fo.make_gravity(GRID, h), h=(1.0, S)),
    "make_groundwater": case(lambda D, nu, x_obs, T: fo.make_groundwater(GRID, D, nu, x_obs, T),
                             D=(0.5, S), nu=(1.0, S), x_obs=(1.0, S), T=(1.0, S)),
    "apply": case(lambda theta: fo.apply(BLUR, theta), theta=(np.ones(5), A)),
    "simulate_data": case(partial(fo.simulate_data, BLUR, seed=0),
                          theta_true=(np.ones(5), A), sigma=(0.1, S)),
    "PrecisionRoot": case(lambda matrix, tilde_sigma: fp.PrecisionRoot(matrix, "custom", tilde_sigma),
                          matrix=(np.eye(4), A), tilde_sigma=(1.0, S)),
    "PrecisionRoot.gram_band": case(lambda matrix: fp.PrecisionRoot(matrix, "custom").gram_band(),
                                    matrix=(np.eye(4), st.sampled_from(
                                        [np.ones(5), np.ones((2, 2, 2)), np.float64(1.0)]))),
    **{build.__name__: case(lambda n, tilde_sigma, build=build: build(n, tilde_sigma),
                            n=(5, C), tilde_sigma=(1.0, S))
       for build in (fp.build_smooth_interior, fp.build_smooth_zero_boundary,
                     fp.build_smooth_soft_boundary, fp.build_nonsmooth)},
    "build_jump": case(lambda jumps: fp.build_jump(6, jumps), jumps=([(2, 0.5)], st.one_of(
        COUNT.map(lambda i: [(i, 0.5)]), SCALAR.map(lambda xi: [(2, xi)])))),
    "prior_log_density": case(lambda theta: fp.prior_log_density(ROOT, theta), theta=(np.ones(5), A)),
    "fit": case(lambda y, sigma: lp.fit(fo.make_identity(GRID), ROOT, y, sigma),
                y=(np.ones(5), A), sigma=(1.0, S)),
    "tikhonov_objective": case(lambda theta, y: lp.tikhonov_objective(POST, theta, y),
                               theta=(np.ones(5), A), y=(np.ones(5), A)),
    "sample": case(lambda k: lp.sample(POST, k, 0), k=(3, C)),
    "discretized_penalty_norm": case(lambda theta: fp.discretized_penalty_norm(SMOOTH, theta),
                                     theta=(np.ones(5), A)),
    "ou_kernel": case(lambda b: gr.ou_kernel(b).evaluate(0.2, 0.7), b=(1.0, S)),
    "squared_exponential_kernel": case(lambda b, d: gr.squared_exponential_kernel(b, d).evaluate(0.2, 0.7),
                                       b=(0.3, S), d=(1, C)),
    "analytic_eigen": case(lambda j: BM.analytic_eigen(j)[1](0.3), j=(2, C)),
    "integrated_wiener_cov": case(gr.integrated_wiener_cov, l=(1, C), x=(0.3, S), x_prime=(0.6, S)),
    "integrated_wiener_kernel": case(lambda l, variance: gr.integrated_wiener_kernel(l, variance)
                                     .evaluate(0.2, 0.7), l=(1, C), variance=(1.0, S)),
    "spline_cubic_kernel": case(lambda variance: gr.spline_cubic_kernel(variance).evaluate(0.2, 0.7),
                                variance=(1.0, S)),
    "spectral_numeric_kernel": case(lambda b: gr.spectral_numeric_kernel(b).evaluate(0.0, 0.5),
                                    b=([1.0, 1.0], A)),
    "matrix_kernel": case(lambda points, cov: gr.matrix_kernel(points, cov).evaluate(points, points),
                          points=(UNIT, A), cov=(np.eye(4), A)),
    "gram": case(lambda points: gr.gram(OU, points), points=(UNIT, A)),
    "nystrom_eigen": case(lambda n, count: gr.nystrom_eigen(BM, n, count, 0), n=(6, C), count=(2, C)),
    "rkhs_norm_truncated": case(gr.rkhs_norm_truncated, theta_coeffs=([1.0, 2.0], A),
                                eigenvalues=([1.0, 0.5], A)),
    "gp_fit": case(lambda x, y, sigma: gr.gp_fit(x, y, BM, sigma),
                   x=([0.1, 0.4, 0.7], A), y=([0.0, 1.0, 0.0], A), sigma=(0.1, S)),
    "GPRegressionFit.solve": case(GP_FIT.solve, v=(np.ones(3), A)),
    "gp_predict": case(lambda x_star: gr.gp_predict(GP_FIT, x_star), x_star=(0.5, S)),
    "gp_predict_curve": case(lambda xs: gr.gp_predict_curve(GP_FIT, xs), xs=(UNIT, A)),
    "spectral_kernel": case(gr.spectral_kernel, b=([1.0, 1.0], A), tau_grid=([0.0, 0.5], A)),
    "penalty_quadratic_form": case(gr.penalty_quadratic_form, b=([0.0, 1.0], A),
                                   theta=(np.sin(np.arange(8.0)), A)),
    "spline_kernel": case(sp.spline_kernel, x=(0.3, S), x_prime=(0.6, S)),
    "spline_fit": case(sp.spline_fit, x=([0.2, 0.5, 0.8], A), y=([0.0, 1.0, 0.0], A), sigma2=(0.1, S),
                       sigma2_theta=(1.0, S), m_order=(2, C)),
    "spline_predict": case(lambda x_star: sp.spline_predict(SPLINE_FIT, x_star), x_star=(0.5, S)),
    "make_calibration_data": case(ir.make_calibration_data, x=([-1.0, 0.0, 1.0, 2.0], A),
                                  y=([0.1, 1.2, 1.9, 3.1], A), y_new=([0.5], A)),
    "confidence_set": case(lambda alpha: ir.confidence_set(EST, alpha), alpha=(0.05, S)),
    "Density1D": case(lambda support, center_hint: ir.Density1D(lambda t: -0.5 * t * t, support,
                                                                center_hint).mean(),
                      support=((-INF, INF), st.one_of(SCALAR.map(lambda v: (v, INF)),
                                                      SCALAR.map(lambda v: (-INF, v)))),
                      center_hint=(0.0, S)),
    "Density1D.quantile": case(DENSITY.quantile, p=(0.3, S)),
    "Density1D.cdf": case(DENSITY.cdf, x=(0.3, S)),
    "Density1D.pdf": case(DENSITY.pdf, x=(np.linspace(-1.0, 1.0, 3), A)),
    "hoadley_informative_prior": case(lambda n: ir.hoadley_informative_prior(n)(0.5), n=(10, C)),
    "hoadley_t_posterior": case(lambda n: ir.hoadley_t_posterior(EST, n), n=(12, C)),
    "poisson_xval_posterior": case(lambda x_all, y_all, held_out: ir.poisson_xval_posterior(
                                       x_all, y_all, held_out).mean(),
                                   x_all=([0.9, 1.1, 1.0, 1.2, 0.8], A),
                                   y_all=([1.0, 2.0, 1.0, 3.0, 2.0], A), held_out=(1, C)),
    "inconsistency_experiment": case(
        lambda theta_true, n_values: [(r.posterior_sd, r.x_true)
                                      for r in ir.inconsistency_experiment(theta_true, n_values, 0)],
        theta_true=(1.0, S), n_values=([20, 40], st.one_of(
            COUNT.map(lambda n: [n, 40]), st.sampled_from([[], [20], [20, 40, 20]])))),
    "standardized_design": case(ir.standardized_design, n=(5, C)),
    "simulate_calibration": case(partial(ir.simulate_calibration, seed=0),
                                 n=(6, C), m=(1, C), alpha_true=(0.0, S), beta_true=(2.0, S),
                                 sigma=(1.0, S), x_true=(0.5, S)),
    "coverage_experiment": case(ir.coverage_experiment,
                                n_reps=(5, C), beta_true=(5.0, S), sigma=(1.0, S), n=(8, C),
                                alpha=(0.05, S), x_true=(1.0, S), seed=(0, C)),
    "estimator_risk_experiment": case(ir.estimator_risk_experiment,
                                      n_reps=(4, C), beta_true=(1.0, S), sigma=(1.0, S), n=(6, C),
                                      x_true=(0.5, S), seed=(0, C)),
}
STRATEGIES = {S: lambda valid: SCALAR, C: lambda valid: COUNT, A: _array}


def _finite(out) -> bool:
    """Every number reachable from ``out`` through sequences, dicts and dataclasses is finite."""
    if out is None or isinstance(out, str) or callable(out):
        return True
    if dataclasses.is_dataclass(out):
        out = vars(out)
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (list, tuple)):
        return all(_finite(v) for v in out)
    return bool(np.isfinite(np.asarray(out, dtype=float)).all())


@pytest.mark.parametrize("case, param", [(c, p) for c, (_, params) in CASES.items() for p in params])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_finite_output_or_error_naming_parameter(case, param, data):
    call, params = CASES[case]
    valid, kind = params[param]
    bad = data.draw(STRATEGIES[kind](valid) if isinstance(kind, str) else kind, label=param)
    names = {param}
    if kind == A and np.shape(bad) != np.shape(valid):
        # a length mismatch may be reported on the array it is compared with
        names |= {p for p, (_, k) in params.items() if k == A}
    try:
        out = call(**{p: bad if p == param else v for p, (v, _) in params.items()})
    except (ValueError, np.linalg.LinAlgError) as exc:
        assert any(re.search(rf"(?<!\w){n}(?!\w)", str(exc)) for n in names), str(exc)
    else:
        assert _finite(out), out


# ---------------------------------------------------------------------------
# the policy lives in one module
# ---------------------------------------------------------------------------

def test_policy_messages_only_in_checks_module():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_checks.py":
            continue
        text = path.read_text()
        for literal in ("must be finite", "must be positive and finite"):
            assert literal not in text, f"{path.name} spells out '{literal}'"


# ---------------------------------------------------------------------------
# value objects holding arrays compare by identity
# ---------------------------------------------------------------------------

ARRAY_HOLDERS = {
    "ForwardOperator": lambda: fo.make_gaussian_blur(GRID, 0.2),
    "PrecisionRoot": lambda: fp.build_nonsmooth(5),
    "GaussianPosterior": lambda: lp.fit(fo.make_identity(GRID), ROOT, np.ones(5), 1.0),
    "GPRegressionFit": lambda: gr.gp_fit([0.1, 0.4, 0.7], [0.0, 1.0, 0.0], BM, 0.1),
    "SplineFit": lambda: sp.spline_fit([0.2, 0.5, 0.8], [0.0, 1.0, 0.0], 0.1, 1.0),
    "CalibrationData": lambda: ir.simulate_calibration(12, 1, 0.0, 2.0, 1.0, 0.5, 3),
    "CoverageResult": lambda: ir.coverage_experiment(5, 5.0, 1.0, 8, 0.05, 1.0, 0),
    "RiskResult": lambda: ir.estimator_risk_experiment(4, 1.0, 1.0, 6, 0.5, 0),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b  # equal contents, distinct objects; no elementwise truth value
    assert hash(a) == hash(a) and len({a, b}) == 2
