"""Job mixes for the four benchmark workloads, with an output oracle per job.

A job is one end-to-end problem: ``run()`` calls the library on inputs that
were generated before timing started, and ``check(output)`` compares what it
returned against a closed form or an identity. ``check`` runs outside the
timed interval and raises ``OracleError`` on a miss.

Sizes are fixed per job class; the workload seed only draws values (noise,
kernel rates, psi, true covariates), so the amount of work per cycle does not
depend on the seed.  Every call into the library goes through a module
attribute (``lp.fit``, not ``from ... import fit``) so that the traced run can
wrap it from outside.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
from scipy import stats

from bayesinv import cli
from bayesinv import fd_priors as fp
from bayesinv import forward_ops as fo
from bayesinv import gp_rkhs as gr
from bayesinv import inverse_regression as ir
from bayesinv import linear_posterior as lp
from bayesinv import spline as sp

WORKLOADS = ("linear_dense", "gp_spline", "calibration", "cli_demos")


class OracleError(Exception):
    """A job's output missed its oracle tolerance."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleError(what)


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    outdir: Optional[Path] = None  # CLI jobs: where the run writes its files
    prepare: Optional[Callable[[], None]] = None  # untimed, before each run


def build_jobs(workload: str, seed: int, workdir: Path, warm: bool = False) -> list[Job]:
    """One cycle of jobs for ``workload``; ``warm`` gives the small warm-up set."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    builders = {
        "linear_dense": _linear_dense,
        "gp_spline": _gp_spline,
        "calibration": _calibration,
        "cli_demos": lambda rng, warm: _cli_demos(rng, warm, workdir),
    }
    jobs = builders[workload](rng, warm)
    seen: dict[str, int] = {}
    for job in jobs:  # second and later draws of a class get "#2", "#3", ...
        seen[job.kind] = seen.get(job.kind, 0) + 1
        if seen[job.kind] > 1:
            job.kind += f"#{seen[job.kind]}"
    return jobs


def _interleave(*groups: list[Job]) -> list[Job]:
    """Round-robin merge, so heavy and light jobs alternate within a cycle."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# linear_dense: discretize -> prior -> simulate -> fit -> sd -> 50 draws
# ---------------------------------------------------------------------------

OPERATORS = ("deblur", "gravity", "groundwater", "diffraction", "travel_time")
PRIORS = ("smooth-zero", "smooth-soft", "nonsmooth")
DENSE_SIZES = (600, 1200)
DRAWS = 50


def _grid(name: str, n: int) -> fo.Grid:
    if name == "gravity":
        return fo.Grid(-5.0, 5.0, n)
    if name == "diffraction":
        return fo.Grid(-math.pi / 2.0, math.pi / 2.0, n)
    return fo.Grid(0.0, 1.0, n)


def _discretize(name: str, grid: fo.Grid, v: dict) -> fo.ForwardOperator:
    if name == "deblur":
        return fo.make_gaussian_blur(grid, v["psi"])
    if name == "gravity":
        return fo.make_gravity(grid, v["height"])
    if name == "groundwater":
        return fo.make_groundwater(grid, v["diffusion"], v["velocity"], 1.0, 1.0)
    if name == "diffraction":
        return fo.make_diffraction(grid)
    return fo.make_travel_time(grid)


def _prior(name: str, n: int, tilde_sigma: float) -> fp.PrecisionRoot:
    if name == "smooth-zero":
        return fp.build_smooth_zero_boundary(n, tilde_sigma)
    if name == "smooth-soft":
        return fp.build_smooth_soft_boundary(n, tilde_sigma)
    return fp.build_nonsmooth(n, tilde_sigma)


def _abs_rows(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.abs(mat).T @ (np.abs(mat) @ v)


def _linear_job(op_name: str, prior_name: str, n: int, rng) -> Job:
    grid = _grid(op_name, n)
    u = (grid.nodes - grid.a) / (grid.b - grid.a)
    truth = rng.uniform(0.5, 1.5) * np.sin(2.0 * math.pi * u + rng.uniform(0.0, 2.0 * math.pi))
    v = {
        "psi": rng.uniform(0.03, 0.07),
        "height": rng.uniform(0.8, 1.2),
        "diffusion": rng.uniform(0.4, 0.6),
        "velocity": rng.uniform(0.8, 1.2),
    }
    sigma = 0.01 * rng.uniform(0.5, 2.0)
    tilde_sigma = (0.05 if prior_name == "nonsmooth" else 0.01) * rng.uniform(0.5, 2.0)
    noise_seed, draw_seed = _seed_int(rng), _seed_int(rng)

    def run():
        op = _discretize(op_name, grid, v)
        prior = _prior(prior_name, n, tilde_sigma)
        y = fo.simulate_data(op, truth, sigma, noise_seed)
        post = lp.fit(op, prior, y, sigma)
        cov = lp.posterior_covariance(post)
        sd = np.sqrt(np.diag(cov))
        draws = lp.sample(post, DRAWS, draw_seed)
        return op, prior, y, post, cov, sd, draws

    def check(out):
        op, prior, y, post, cov, sd, draws = out
        kmat, mmat = op.matrix, prior.matrix

        def hess(v):  # H v without forming H, so the check stays O(n^2)
            return kmat.T @ (kmat @ v) / sigma**2 + mmat.T @ (mmat @ v) / tilde_sigma**2

        # |H|_inf, bounded by the row sums of |K|^T |K| and |M|^T |M|
        ones = np.ones(n)
        h_norm = (_abs_rows(kmat, ones) / sigma**2 + _abs_rows(mmat, ones) / tilde_sigma**2).max()
        # residuals scaled by |H| |x| (backward error), which stays near
        # n * eps however ill-conditioned H is
        resid = np.abs(hess(post.mean) - kmat.T @ y / sigma**2).max()
        resid /= h_norm * np.abs(post.mean).max()
        require(resid < 1e-12, f"normal-equation residual {resid:.2e}")
        cols = [0, n // 3, 2 * n // 3, n - 1]
        eye_resid = np.abs(hess(cov[:, cols]) - np.eye(n)[:, cols]).max()
        eye_resid /= h_norm * np.abs(cov[:, cols]).max()
        require(eye_resid < 1e-12, f"|H C - I| {eye_resid:.2e}")
        require(np.all(np.isfinite(sd)) and np.all(sd > 0), "posterior sd not positive")
        require(draws.shape == (DRAWS, n) and np.all(np.isfinite(draws)), "bad draw array")
        # six standard errors per coordinate: every seed passes
        dev = np.abs(draws.mean(axis=0) - post.mean) / (sd / math.sqrt(DRAWS))
        require(dev.max() < 6.0, f"draw mean off by {dev.max():.1f} standard errors")

    return Job(f"{op_name}/{prior_name}/n{n}", run, check)


def _linear_dense(rng, warm: bool) -> list[Job]:
    if warm:
        return [_linear_job(o, p, 40, rng) for o in OPERATORS for p in PRIORS]
    small, large = ([_linear_job(o, p, n, rng) for o in OPERATORS for p in PRIORS]
                    for n in DENSE_SIZES)
    # a second draw of one large problem makes the cycle odd (31 jobs), so
    # the median is the middle of the fastest large class rather than the
    # mean of the slowest small and the fastest large job
    return _interleave(small, large + [_linear_job(OPERATORS[0], PRIORS[0], DENSE_SIZES[1], rng)])


# ---------------------------------------------------------------------------
# gp_spline: GP regression, smoothing splines, spectral inversion, Nystrom
# ---------------------------------------------------------------------------

GP_KERNELS = ("ou", "sqexp", "brownian", "spline")
GP_SIZES = (200, 700)
CURVE_POINTS = 401
POINT_PREDICTIONS = 20


def _gp_kernel(name: str, rng) -> gr.CovarianceKernel:
    if name == "ou":
        return gr.ou_kernel(rng.uniform(0.5, 2.0))
    if name == "sqexp":
        return gr.squared_exponential_kernel(rng.uniform(0.1, 0.3))
    if name == "brownian":
        return gr.brownian_motion_kernel()
    return gr.spline_cubic_kernel(rng.uniform(0.5, 2.0))


def _training_points(rng, n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x = np.sort(rng.uniform(lo, hi, n))
    while np.any(np.diff(x) <= 0):
        x = np.sort(rng.uniform(lo, hi, n))
    y = np.sin(2.0 * math.pi * rng.uniform(0.5, 1.5) * x) + 0.1 * rng.standard_normal(n)
    return x, y


def _gp_job(name: str, n: int, rng) -> Job:
    kernel = _gp_kernel(name, rng)
    x, y = _training_points(rng, n, 0.01, 0.99)
    sigma = rng.uniform(0.05, 0.2)
    grid = np.linspace(0.0, 1.0, CURVE_POINTS)
    picks = np.sort(rng.choice(CURVE_POINTS, POINT_PREDICTIONS, replace=False))

    def run():
        fit = gr.gp_fit(x, y, kernel, sigma)
        means, variances = gr.gp_predict_curve(fit, grid)
        points = [gr.gp_predict(fit, float(grid[i])) for i in picks]
        return fit, means, variances, points

    def check(out):
        fit, means, variances, points = out
        c = fit.coefficients
        kmat = np.asarray(kernel.evaluate(x[:, None], x[None, :]), dtype=float)
        solve = np.abs(kmat @ c + sigma**2 * c - y).max()
        scale = (np.abs(kmat).sum(axis=1).max() + sigma**2) * np.abs(c).max()
        require(solve / scale < 1e-12, f"(K + s^2 I) c = y residual {solve / scale:.2e}")
        for i, (mean, var) in zip(picks, points):
            terms = c * np.asarray(kernel.evaluate(float(grid[i]), x), dtype=float)
            # representer identity against an exactly rounded sum, scaled by
            # the size of the terms summed
            size = max(1.0, float(np.abs(terms).sum()))
            explicit = math.fsum(terms)
            require(abs(mean - explicit) < 1e-12 * size, f"representer residual {abs(mean - explicit):.2e}")
            require(abs(mean - means[i]) < 1e-12 * size, "point and curve means disagree")
            require(abs(var - variances[i]) < 1e-10 and var >= 0.0, "point and curve variances disagree")

    return Job(f"gp/{name}/n{n}", run, check)


def _spline_job(m: int, n: int, num_pred: int, rng) -> Job:
    x, y = _training_points(rng, n, 0.02, 0.98)
    sigma2 = 0.01 * rng.uniform(0.5, 2.0)
    sigma2_theta = rng.uniform(0.5, 2.0)
    grid = np.linspace(0.0, 1.0, num_pred)

    def run():
        fit = sp.spline_fit(x, y, sigma2, sigma2_theta, m)
        return fit, sp.spline_predict(fit, grid)

    def check(out):
        fit, curve = out
        require(curve.shape == grid.shape and np.all(np.isfinite(curve)), "bad prediction curve")
        # at the knots the smoother equals y - sigma2 * Khat^{-1}(y - H beta),
        # and the vague-prior limit forces H^T c = 0
        some = slice(None, None, 5)  # every fifth knot keeps the m=1/3 check cheap
        knots = sp.spline_predict(fit, x[some])
        scale = max(1.0, np.abs(y).max())
        knot_resid = np.abs(knots - (y - sigma2 * fit.coefficients)[some]).max()
        require(knot_resid < 1e-8 * scale, f"knot identity residual {knot_resid:.2e}")
        ortho = np.abs(np.vander(x, m, increasing=True).T @ fit.coefficients).max()
        require(ortho < 1e-8 * max(1.0, np.abs(fit.coefficients).sum()), f"H^T c = {ortho:.2e}")
        if m == 2:
            pts = x[:: max(1, n // 8)]
            worst = max(abs(sp.integrated_wiener_cov(1, a, b) - sp.spline_kernel(a, b))
                        for a in pts for b in pts)
            require(worst < 1e-10, f"integrated Wiener vs spline kernel {worst:.2e}")

    return Job(f"spline/m{m}/n{n}", run, check)


SPECTRAL_LAGS = 61


def _spectral_job(rng, lags: int) -> Job:
    b = rng.uniform(0.5, 2.0)
    taus = np.linspace(0.0, 3.0, lags)

    def run():
        return gr.spectral_kernel([b * b, 1.0], taus)

    def check(vals):
        err = np.abs(vals - np.exp(-b * taus) / (2.0 * b)).max()
        require(err < 1e-4, f"spectral inversion vs OU closed form {err:.2e}")

    return Job(f"spectral/lags{lags}", run, check)


NYSTROM_N = 800
NYSTROM_COUNT = 5


def _nystrom_job(rng, n: int) -> Job:
    seed = _seed_int(rng)
    exact = np.array([1.0 / ((j - 0.5) ** 2 * math.pi**2) for j in range(1, NYSTROM_COUNT + 1)])

    def run():
        return gr.nystrom_eigen(gr.brownian_motion_kernel(), n, NYSTROM_COUNT, seed)

    def check(pairs):
        lams = np.array([p[0] for p in pairs])
        # one draw at n = 800 fluctuates by ~1.5% per eigenvalue; 0.12 is
        # about eight standard deviations
        rel = np.abs(lams - exact) / exact
        require(rel.max() < 0.12, f"Nystrom eigenvalue rel error {rel.max():.3f}")
        vecs = np.array([p[1] for p in pairs])
        require(np.abs(vecs @ vecs.T - np.eye(NYSTROM_COUNT)).max() < 1e-10, "eigenvectors not orthonormal")

    return Job(f"nystrom/n{n}", run, check)


def _gp_spline(rng, warm: bool) -> list[Job]:
    if warm:
        gps = [_gp_job(k, 30, rng) for k in GP_KERNELS]
    else:
        # two draws per kernel at n=700: with 17 jobs the median falls well
        # inside the n=700 GP block, not on the edge of the spectral or
        # Nystrom class, whose times sit close to it
        small, large = GP_SIZES
        gps = [_gp_job(k, small, rng) for k in GP_KERNELS]
        gps += [_gp_job(k, large, rng) for k in GP_KERNELS for _ in range(2)]
    if warm:
        others = [_spline_job(2, 20, 11, rng), _spline_job(1, 8, 5, rng), _spline_job(3, 8, 5, rng),
                  _spectral_job(rng, 3), _nystrom_job(rng, NYSTROM_N)]
    else:
        others = [_spline_job(2, 400, 201, rng), _spline_job(1, 50, 41, rng),
                  _spline_job(3, 50, 41, rng), _spectral_job(rng, SPECTRAL_LAGS),
                  _nystrom_job(rng, NYSTROM_N)]
    return _interleave(gps, others)


# ---------------------------------------------------------------------------
# calibration: Density1D posteriors and the Monte Carlo replicate loops
# ---------------------------------------------------------------------------

HOADLEY_N = 15
HOADLEY_PDF_POINTS = 201


def _hoadley_job(rng, levels=(0.1, 0.9)) -> Job:
    data = ir.simulate_calibration(
        HOADLEY_N, 1, rng.uniform(-1.0, 1.0), rng.uniform(1.5, 3.0), 1.0,
        rng.uniform(0.0, 1.0), _seed_int(rng),
    )

    def run():
        post = ir.hoadley_posterior(data, ir.hoadley_informative_prior(HOADLEY_N))
        grid = np.linspace(post.window[0], post.window[1], HOADLEY_PDF_POINTS)
        return post.mean(), [post.quantile(p) for p in levels], grid, post.pdf(grid)

    def check(out):
        mean, quantiles, grid, dens = out
        est = ir.fit_calibration(data)
        loc, scale, df = ir.hoadley_t_posterior(est, HOADLEY_N)
        require(abs(mean - est.x_inverse) < 1e-6, f"posterior mean off the t form by {abs(mean - est.x_inverse):.2e}")
        for p, q in zip(levels, quantiles):
            expect = loc + scale * stats.t.ppf(p, df)
            require(abs(q - expect) < 1e-4, f"quantile {p} off the t form by {abs(q - expect):.2e}")
        exact = stats.t.pdf((grid - loc) / scale, df) / scale
        require(np.abs(dens - exact).max() < 1e-6 * exact.max(), "pdf off the t density")

    return Job(f"hoadley/n{HOADLEY_N}", run, check)


def _coverage_job(rng, reps: int) -> Job:
    beta, x_true, seed = rng.uniform(3.0, 6.0), rng.uniform(0.5, 1.5), _seed_int(rng)

    def run():
        return ir.coverage_experiment(reps, beta, 1.0, 30, 0.05, x_true, seed)

    def check(res):
        # the inverted t test is exact, so coverage is 0.95 up to Monte Carlo
        # error; five standard errors wide
        se = math.sqrt(0.95 * 0.05 / reps)
        require(abs(res.coverage - 0.95) < 5.0 * se, f"coverage {res.coverage:.4f}")
        require(res.covered.shape == (reps,) and np.all(np.isfinite(res.x_inverse)), "bad replicate arrays")

    return Job(f"coverage/reps{reps}", run, check)


def _risk_job(rng, reps: int, heavy_tail: bool) -> Job:
    beta, x_true, seed = rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7), _seed_int(rng)

    def run():
        return ir.estimator_risk_experiment(reps, beta, 1.0, 20, x_true, seed)

    def check(res):
        ratio = res.mse_inverse_half / res.mse_inverse_full
        require(abs(ratio - 1.0) < 0.2, f"inverse-estimator MSE half/full {ratio:.3f}")
        if heavy_tail:
            require(res.max_abs_classical > 100.0 * res.median_abs_classical,
                    "classical estimator shows no heavy tail")

    return Job(f"risk/reps{reps}", run, check)


INCONSISTENCY_N = (100, 1000, 10000, 100000)
# sd(n = 1e5) / sd(n = 100): about 1 with a wide spread from the held-out
# count; a posterior contracting at the usual rate would give sqrt(1e-3) = 0.03
NON_CONTRACTION = 0.1


def _inconsistency_job(rng) -> Job:
    theta, seed = rng.uniform(0.5, 2.0), _seed_int(rng)

    def run():
        rows = ir.inconsistency_experiment(theta, INCONSISTENCY_N, seed)
        return rows, [r.posterior.mean() for r in rows]

    def check(out):
        rows, means = out
        for row, mean in zip(rows, means):
            post = row.posterior
            require(abs(mean - post.exact_mean) / post.exact_mean < 1e-8, "Poisson mean off closed form")
            norm = abs(math.exp(post.log_normalizer - post.exact_log_normalizer) - 1.0)
            require(norm < 1e-8, f"Poisson normalizer off closed form by {norm:.2e}")
        require(rows[-1].posterior_sd / rows[0].posterior_sd >= NON_CONTRACTION, "posterior contracted")

    return Job("inconsistency/n1e5", run, check)


def _calibration(rng, warm: bool) -> list[Job]:
    if warm:
        return [_hoadley_job(rng, (0.5,)), _coverage_job(rng, 50), _risk_job(rng, 50, False),
                _inconsistency_job(rng)]
    # seven jobs a cycle: the median lands inside the coverage class and the
    # tail inside the Hoadley class, whose cost varies with the data, so
    # three draws of it are averaged
    return [_hoadley_job(rng), _inconsistency_job(rng), _coverage_job(rng, 1500), _hoadley_job(rng),
            _risk_job(rng, 3000, True), _inconsistency_job(rng), _hoadley_job(rng)]


# ---------------------------------------------------------------------------
# cli_demos: stock-size runs through cli.main, outputs checked on disk
# ---------------------------------------------------------------------------

# files FORMATS.md lists per command, with their CSV header or JSON keys
FORMATS = {
    "demo-linear": {
        "truth.csv": ["x", "theta_true"],
        "data.csv": ["x", "y"],
        "posterior.csv": ["x", "mean", "lower", "upper"],
        "summary.json": ["rmse_map", "rmse_data", "objective_at_map"],
    },
    "gp": {
        "data.csv": ["x", "y"],
        "curve.csv": ["x", "mean", "sd"],
        "summary.json": ["representer_residual_max", "condition_estimate", "ill_conditioned"],
    },
    "calibrate": {
        "estimates.json": ["alpha_hat", "beta_hat", "gamma_hat", "delta_hat", "x_classical",
                           "x_inverse", "sigma2_1", "sigma2_2", "sigma2_pooled", "f_stat",
                           "confidence_set", "posterior_integral", "posterior_mean"],
        "posterior.csv": ["x", "density"],
    },
    "inconsistency": {
        "table.csv": ["n", "posterior_sd", "x_true"],
        "summary.json": ["sd_ratio_last_over_first"],
    },
}
MANIFEST_KEYS = ["command", "seed", "package_version", "params"]


def _csv_header(path: Path) -> list[str]:
    with open(path) as fh:
        return fh.readline().strip().split(",")


def _check_formats(command: str, outdir: Path, argv: list[str]) -> None:
    expected = dict(FORMATS[command], **{"manifest.json": MANIFEST_KEYS})
    if command == "inconsistency":
        n_values = argv[argv.index("--n-values") + 1].split(",")
        expected.update({f"density_n{n}.csv": ["x", "density", "x_true"] for n in n_values})
    for name, fields in expected.items():
        path = outdir / name
        require(path.is_file(), f"{command}: {name} missing")
        if name.endswith(".csv"):
            require(_csv_header(path) == fields, f"{command}: {name} header {_csv_header(path)}")
        else:
            keys = json.loads(path.read_text())
            require(all(k in keys for k in fields), f"{command}: {name} lacks keys")


def _snapshot(outdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.suffix == ".csv"}


def _cli_job(argv: list[str], outdir: Path, semantic: Callable[[Path], None]) -> Job:
    command = argv[0]
    first: dict = {}

    def run():
        return cli.main(argv + ["--out", str(outdir)])

    def check(code):
        require(code == 0, f"{command} exited with {code}")
        _check_formats(command, outdir, argv)
        semantic(outdir)
        # every cycle reruns the same arguments, so each later run is a
        # determinism check: byte-identical CSVs
        snap = _snapshot(outdir)
        if not first:
            first.update(snap)
        require(snap == first, f"{command}: CSVs differ from the first run with the same arguments")

    def fresh():
        shutil.rmtree(outdir, ignore_errors=True)

    return Job(f"cli/{command}/{outdir.name}", run, check, outdir, fresh)


def _summary(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def _rows(outdir: Path, name: str) -> int:
    with open(outdir / name) as fh:
        return sum(1 for _ in fh) - 1


def _cli_demos(rng, warm: bool, workdir: Path) -> list[Job]:
    def seed() -> str:
        return str(int(rng.integers(0, 10**6)))

    jobs = []

    def demo(kernel, prior, truth, n, extra=()):
        argv = ["demo-linear", "--kernel", kernel, "--prior", prior, "--truth", truth,
                "--n", str(n), "--seed", seed(), *extra]
        outdir = workdir / f"j{len(jobs)}"

        def semantic(d):
            require(_rows(d, "posterior.csv") == n, "posterior.csv row count")
            s = _summary(d, "summary.json")
            require(all(math.isfinite(s[k]) for k in s), "non-finite summary")

        jobs.append(_cli_job(argv, outdir, semantic))

    def gp(kernel, n, extra=(), data: Optional[Path] = None):
        argv = ["gp", "--kernel", kernel, "--seed", seed(), "--num-pred", "201", *extra]
        argv += ["--data", str(data)] if data else ["--n", str(n)]
        outdir = workdir / f"j{len(jobs)}"

        def semantic(d):
            require(_rows(d, "curve.csv") == 201, "curve.csv row count")
            s = _summary(d, "summary.json")
            # criterion 04 tolerance on the representer identity
            require(s["representer_residual_max"] < 1e-12,
                    f"representer residual {s['representer_residual_max']:.2e}")

        jobs.append(_cli_job(argv, outdir, semantic))
        return outdir / "data.csv"

    def calibrate(m, points):
        argv = ["calibrate", "--m", str(m), "--n", "30", "--curve-points", str(points),
                "--beta-true", f"{rng.uniform(1.5, 3.0):.6f}", "--x-true", f"{rng.uniform(0.0, 1.0):.6f}",
                "--seed", seed()]
        outdir = workdir / f"j{len(jobs)}"

        def semantic(d):
            require(_rows(d, "posterior.csv") == points, "posterior.csv row count")
            s = _summary(d, "estimates.json")
            require(abs(s["posterior_integral"] - 1.0) < 1e-3, f"posterior integrates to {s['posterior_integral']}")

        jobs.append(_cli_job(argv, outdir, semantic))

    def inconsistency(n_values):
        argv = ["inconsistency", "--theta", f"{rng.uniform(0.5, 2.0):.6f}", "--n-values", n_values,
                "--seed", seed()]
        outdir = workdir / f"j{len(jobs)}"

        def semantic(d):
            s = _summary(d, "summary.json")
            require(s["sd_ratio_last_over_first"] >= NON_CONTRACTION, "posterior contracted")

        jobs.append(_cli_job(argv, outdir, semantic))

    if warm:
        demo("deblur", "smooth-zero", "smooth", 30)
        written = gp("ou", 10)
        gp("sqexp", 0, data=written)
        calibrate(1, 201)
        inconsistency("100,1000")
        return jobs
    # eleven jobs a cycle: an odd count puts the median inside a job class
    demo("deblur", "smooth-zero", "smooth", 100)
    written = gp("ou", 25)
    calibrate(1, 201)
    demo("gravity", "smooth-soft", "smooth", 200)
    gp("sqexp", 40, ["--b", "0.2"])
    inconsistency("100,1000,10000,100000")
    demo("seismic", "nonsmooth", "step", 150, ["--tilde-sigma", "0.05"])
    gp("sqexp", 0, ["--b", "0.3"], data=written)
    calibrate(3, 2001)
    demo("groundwater", "smooth-zero", "smooth", 120)
    gp("ou", 40, ["--b", "2.0"])
    return jobs
