import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg, optimize

from bayesinv import cli
from bayesinv import fd_priors as fp
from bayesinv import forward_ops as fo
from bayesinv import linear_posterior as lp
from bayesinv.csvio import read_csv

LINEAR_POSTERIOR = Path(__file__).resolve().parent.parent / "src" / "bayesinv" / "linear_posterior.py"


def identity_problem(n=5):
    grid = fo.Grid(0.0, 1.0, n)
    op = fo.make_identity(grid)
    prior = fp.PrecisionRoot(np.eye(n), "custom_identity")
    return op, prior


def deblur_problem(n=40, psi=0.08, sigma=0.05, tilde_sigma=1.0, seed=3, truth=None):
    grid = fo.Grid(0.0, 1.0, n)
    op = fo.make_gaussian_blur(grid, psi)
    prior = fp.build_smooth_zero_boundary(n, tilde_sigma)
    if truth is None:
        truth = np.sin(2 * math.pi * grid.nodes)
    y = fo.simulate_data(op, truth, sigma, seed)
    return op, prior, y


def minimize_tikhonov(op, prior, y, sigma, x0=None):
    """Independent iterative minimizer of the regularized misfit."""
    kmat, mmat, ts = op.matrix, prior.matrix, prior.tilde_sigma

    def fun(th):
        r = y - kmat @ th
        p = mmat @ th
        return r @ r / (2 * sigma**2) + p @ p / (2 * ts**2)

    def jac(th):
        return -kmat.T @ (y - kmat @ th) / sigma**2 + mmat.T @ (mmat @ th) / ts**2

    def hessp(_, p):
        return kmat.T @ (kmat @ p) / sigma**2 + mmat.T @ (mmat @ p) / ts**2

    res = optimize.minimize(
        fun, np.zeros(kmat.shape[1]) if x0 is None else x0,
        jac=jac, hessp=hessp, method="Newton-CG",
        options=dict(xtol=1e-14, maxiter=5000),
    )
    return res.x


class TestFit:
    def test_identity_shrinks_by_half(self):
        op, prior = identity_problem(5)
        y = np.array([2.0, -1.0, 0.5, 3.0, 0.0])
        post = lp.fit(op, prior, y, sigma=1.0)
        assert_allclose(post.mean, y / 2.0, rtol=1e-12)

    def test_vague_prior_recovers_inverse(self):
        n = 8
        grid = fo.Grid(0.0, 1.0, n)
        op = fo.make_gaussian_blur(grid, 0.2)
        prior = fp.PrecisionRoot(np.eye(n), "custom_identity", tilde_sigma=1e8)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(n)
        post = lp.fit(op, prior, y, sigma=1.0)
        direct = np.linalg.solve(op.matrix, y)
        assert np.abs(post.mean - direct).max() < 1e-4

    def test_mean_matches_iterative_minimizer(self):
        # oracle: Newton-CG on the misfit, independent of the direct solve
        rng = np.random.default_rng(12)
        grid = fo.Grid(0.0, 1.0, 6)
        op = fo.ForwardOperator(rng.standard_normal((6, 6)), grid, grid, "custom")
        prior = fp.build_nonsmooth(6, tilde_sigma=0.8)
        y = rng.standard_normal(6)
        post = lp.fit(op, prior, y, sigma=0.7)
        argmin = minimize_tikhonov(op, prior, y, 0.7)
        assert np.abs(post.mean - argmin).max() < 1e-8

    def test_hessian_symmetric_positive(self):
        op, prior, y = deblur_problem()
        post = lp.fit(op, prior, y, 0.05)
        # K^T K and M^T M come out exactly symmetric, with no symmetrizing step
        assert np.array_equal(post.hessian, post.hessian.T)
        assert np.linalg.eigvalsh(post.hessian).min() > 0

    def test_normal_equation_residual(self):
        op, prior, y = deblur_problem()
        post = lp.fit(op, prior, y, 0.05)
        rhs = op.matrix.T @ y / 0.05**2
        resid = post.hessian @ post.mean - rhs
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(rhs)

    def test_singular_hessian_reported(self):
        n = 6
        grid = fo.Grid(0.0, 1.0, n)
        dead = fo.ForwardOperator(np.zeros((n, n)), grid, grid, "custom")
        prior = fp.build_smooth_interior(n)
        with pytest.raises(np.linalg.LinAlgError, match="smooth_interior"):
            lp.fit(dead, prior, np.zeros(n), sigma=1.0)

    def test_dimension_checks(self):
        op, prior = identity_problem(5)
        with pytest.raises(ValueError, match="sigma"):
            lp.fit(op, prior, np.zeros(5), sigma=0.0)
        with pytest.raises(ValueError, match="shape"):
            lp.fit(op, prior, np.zeros(6), sigma=1.0)
        with pytest.raises(ValueError, match="prior acts on 4 nodes but operator has 5 columns"):
            lp.fit(op, fp.build_nonsmooth(4), np.zeros(5), sigma=1.0)

    @pytest.mark.parametrize("name, y, sigma", [
        ("y", [0.0, math.nan, 0.0, 0.0, 0.0], 1.0),
        ("y", [0.0, 0.0, math.inf, 0.0, 0.0], 1.0),
        ("sigma", np.zeros(5), math.nan),
        ("sigma", np.zeros(5), math.inf),
    ])
    def test_non_finite_input_named(self, name, y, sigma):
        op, prior = identity_problem(5)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            lp.fit(op, prior, np.asarray(y), sigma)


class TestObjective:
    def test_map_minimizes(self):
        op, prior, y = deblur_problem()
        post = lp.fit(op, prior, y, 0.05)
        at_map = lp.tikhonov_objective(post, post.mean, y)
        rng = np.random.default_rng(0)
        for _ in range(100):
            other = post.mean + 0.1 * rng.standard_normal(post.n)
            assert lp.tikhonov_objective(post, other, y) >= at_map

    def test_zero_theta(self):
        op, prior = identity_problem(4)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        post = lp.fit(op, prior, y, sigma=2.0)
        assert_allclose(lp.tikhonov_objective(post, np.zeros(4), y), (y @ y) / 8.0)

    def test_matches_naive_sum(self):
        # oracle: independently coded two-term evaluation
        op, prior, y = deblur_problem(n=12)
        post = lp.fit(op, prior, y, 0.05)
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(12)
        misfit = sum((y[i] - float(op.matrix[i] @ theta)) ** 2 for i in range(12))
        pen = sum(float(prior.matrix[i] @ theta) ** 2 for i in range(12))
        expect = misfit / (2 * 0.05**2) + pen / (2 * prior.tilde_sigma**2)
        assert_allclose(lp.tikhonov_objective(post, theta, y), expect, rtol=1e-12)


class TestCovarianceAndSampling:
    def test_identity_covariance(self):
        op, prior = identity_problem(4)
        post = lp.fit(op, prior, np.ones(4), sigma=1.0)
        assert_allclose(lp.posterior_covariance(post), np.eye(4) / 2.0, rtol=1e-12)

    def test_inverse_residual(self):
        op, prior, y = deblur_problem()
        post = lp.fit(op, prior, y, 0.05)
        cov = lp.posterior_covariance(post)
        assert np.abs(post.hessian @ cov - np.eye(post.n)).max() < 1e-8

    def test_monte_carlo_variances(self):
        # oracle: sampled variances against the covariance diagonal
        op, prior, y = deblur_problem(n=20)
        post = lp.fit(op, prior, y, 0.05)
        draws = lp.sample(post, 100000, seed=21)
        mc = draws.var(axis=0)
        diag = np.diag(lp.posterior_covariance(post))
        assert np.abs(mc - diag).max() / diag.max() < 0.03

    def test_sample_mean_near_map(self):
        op, prior, y = deblur_problem(n=15)
        post = lp.fit(op, prior, y, 0.05)
        k = 20000
        draws = lp.sample(post, k, seed=2)
        se = np.sqrt(np.diag(lp.posterior_covariance(post)) / k)
        assert np.all(np.abs(draws.mean(axis=0) - post.mean) < 3.5 * se)

    def test_sample_determinism_and_validation(self):
        op, prior = identity_problem(3)
        post = lp.fit(op, prior, np.ones(3), sigma=1.0)
        assert_allclose(lp.sample(post, 5, seed=1), lp.sample(post, 5, seed=1))
        with pytest.raises(ValueError, match=">= 1"):
            lp.sample(post, 0, seed=1)


class TestEquivalenceInvariants:
    def test_map_equals_tikhonov_argmin(self):
        # the central equivalence: closed form against the iterative path
        op, prior, y = deblur_problem(n=60, sigma=0.05)
        post = lp.fit(op, prior, y, 0.05)
        argmin = minimize_tikhonov(op, prior, y, 0.05)
        rel = np.abs(post.mean - argmin).max() / np.abs(post.mean).max()
        assert rel < 1e-6

    def test_monotone_regularization(self):
        misfits = []
        for ts in (0.1, 1.0, 10.0):
            op, prior, y = deblur_problem(n=30, tilde_sigma=ts, seed=8)
            post = lp.fit(op, prior, y, 0.05)
            misfits.append(np.linalg.norm(y - op.matrix @ post.mean))
        assert misfits[0] >= misfits[1] >= misfits[2]

    def test_log_density_peaks_at_mean(self):
        op, prior, y = deblur_problem(n=25)
        post = lp.fit(op, prior, y, 0.05)
        base = -lp.tikhonov_objective(post, post.mean, y)
        rng = np.random.default_rng(4)
        for _ in range(50):
            other = post.mean + rng.standard_normal(post.n)
            assert -lp.tikhonov_objective(post, other, y) - base <= 1e-12


def dense_reference(op, prior, y, sigma):
    """The dense path the banded one replaced: (hessian, mean, cov, sd)."""
    kmat, mmat = op.matrix, prior.matrix
    hess = kmat.T @ kmat / sigma**2 + mmat.T @ mmat / prior.tilde_sigma**2
    chol = linalg.cholesky(hess, lower=True)
    mean = linalg.cho_solve((chol, True), kmat.T @ y / sigma**2)
    cov = linalg.cho_solve((chol, True), np.eye(hess.shape[0]))
    return hess, mean, cov, np.sqrt(np.diag(cov))


BUILDERS = {
    "smooth_interior": fp.build_smooth_interior,
    "smooth_zero_boundary": fp.build_smooth_zero_boundary,
    "smooth_soft_boundary": fp.build_smooth_soft_boundary,
    "nonsmooth": fp.build_nonsmooth,
    "single_jump": lambda n, ts: fp.build_jump(n, [(n // 3, 0.3)], ts),
    "multi_jump": lambda n, ts: fp.build_jump(n, [(2, 0.37), (n // 2, 0.61), (n, 0.2)], ts),
}
OPERATORS = {
    "deblur": lambda g: fo.make_gaussian_blur(g, 0.05),
    "seismic": fo.make_travel_time,
    "identity": fo.make_identity,
}


class TestBandedHessian:
    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("operator", OPERATORS)
    @pytest.mark.parametrize("n", [3, 41, 300])
    def test_matches_dense_hessian(self, builder, operator, n):
        grid = fo.Grid(0.0, 1.0, n)
        op, prior = OPERATORS[operator](grid), BUILDERS[builder](n, 0.7)
        y = np.cos(np.arange(n) * 0.4)
        kk, mm = op.matrix.T @ op.matrix / 0.05**2, prior.matrix.T @ prior.matrix / 0.7**2
        try:
            post = lp.fit(op, prior, y, 0.05)
        except np.linalg.LinAlgError:
            assert builder == "smooth_interior" and operator == "seismic"
            return
        if builder in ("smooth_interior", "smooth_zero_boundary", "nonsmooth"):
            # every product in M^T M is exact: the same bits as the dense sum
            assert np.array_equal(post.hessian, kk + mm)
            assert np.array_equal(post.mean, dense_reference(op, prior, y, 0.05)[1])
        else:
            # a delta or xi term can round once more than a fused multiply-add
            eps = np.finfo(float).eps
            assert np.all(np.abs(post.hessian - (kk + mm)) <= eps * (np.abs(kk) + np.abs(mm)))


class TestLapackInverse:
    @pytest.mark.parametrize("builder", ["smooth_zero_boundary", "smooth_soft_boundary", "nonsmooth",
                                         "multi_jump"])
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_covariance_and_sd_match_identity_solve(self, builder, operator):
        n = 120
        grid = fo.Grid(0.0, 1.0, n)
        op, prior = OPERATORS[operator](grid), BUILDERS[builder](n, 0.5)
        y = np.sin(np.arange(n) * 0.3)
        post = lp.fit(op, prior, y, 0.05)
        _, _, cov_ref, sd_ref = dense_reference(op, prior, y, 0.05)
        cov = lp.posterior_covariance(post)
        assert np.array_equal(cov, cov.T)
        assert np.abs(cov - cov_ref).max() <= 1e-13 * np.abs(cov_ref).max()
        sd = lp.posterior_sd(post)
        assert np.all(np.abs(sd - np.sqrt(np.diag(cov))) <= 1e-13 * sd)
        assert np.all(np.abs(sd - sd_ref) <= 1e-13 * sd_ref)

    def test_failed_inversion_raises(self):
        op, prior, y = deblur_problem(n=12)
        post = lp.fit(op, prior, y, 0.05)
        chol = post.chol_lower.copy()
        chol[5, 5] = 0.0  # a singular factor: dpotri and dtrtri report info = 6
        broken = dataclasses.replace(post, chol_lower=chol)
        with pytest.raises(np.linalg.LinAlgError, match="dpotri"):
            lp.posterior_covariance(broken)
        with pytest.raises(np.linalg.LinAlgError, match="dtrtri"):
            lp.posterior_sd(broken)

    def test_covariance_mirrors_in_place(self):
        # dpotri's copy of the factor plus one n x n triangle; mirroring out
        # of place would add a third n x n array
        n = 400
        op, prior, y = deblur_problem(n=n)
        post = lp.fit(op, prior, y, 0.05)
        lp.posterior_covariance(post)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cov = lp.posterior_covariance(post)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert cov.shape == (n, n)
        assert peak <= 2.5 * n * n * 8

    def test_band_export_builds_no_covariance(self, tmp_path, monkeypatch):
        # demo-linear's bands are the mean -+ 2 posterior_sd, with no covariance formed
        def refuse(_):
            raise AssertionError("demo-linear formed the covariance")

        monkeypatch.setattr(lp, "posterior_covariance", refuse)
        out = tmp_path / "run"
        assert cli.main(["demo-linear", "--n", "15", "--psi", "0.08", "--sigma", "0.05",
                         "--tilde-sigma", "1.0", "--out", str(out)]) == 0
        op, prior, _ = deblur_problem(n=15)
        post = lp.fit(op, prior, read_csv(out / "data.csv", ["x", "y"])[:, 1], 0.05)
        rows = read_csv(out / "posterior.csv", ["x", "mean", "lower", "upper"])
        assert rows.shape == (15, 4)
        assert np.all((rows[:, 2] < rows[:, 1]) & (rows[:, 1] < rows[:, 3]))
        assert_allclose((rows[:, 3] - rows[:, 2]) / 4, lp.posterior_sd(post), rtol=1e-15)


@pytest.mark.parametrize("prior", ["smooth-interior", "smooth-zero", "smooth-soft", "nonsmooth"])
def test_demo_linear_moves_only_the_bands(tmp_path, prior):
    # the CLI's mean is the dense path's bit for bit; lower/upper come from
    # dtrtri column norms instead of the identity solve and move in last bits
    for kernel in cli.OPERATORS:
        out = tmp_path / kernel
        assert cli.main(["demo-linear", "--kernel", kernel, "--prior", prior, "--n", "300",
                         "--seed", "3", "--out", str(out)]) == 0
        params = dict(cli.DEFAULTS["demo-linear"], kernel=kernel, prior=prior, n=300)
        op = cli.OPERATORS[kernel](params)
        root = cli.PRIORS[prior](op.col_grid.n, params["tilde_sigma"])
        y = read_csv(out / "data.csv", ["x", "y"])[:, 1]
        _, mean, _, sd = dense_reference(op, root, y, params["sigma"])
        rows = read_csv(out / "posterior.csv", ["x", "mean", "lower", "upper"])
        assert np.array_equal(rows[:, 1], mean)
        for col, band in ((2, mean - 2 * sd), (3, mean + 2 * sd)):
            # twice the sd move, plus the rounding of mean -+ 2 sd
            assert np.all(np.abs(rows[:, col] - band) <= 2e-13 * sd + np.spacing(np.abs(band)))


def test_module_forms_no_dense_gram_or_identity_solve():
    # H takes the prior only through its band, and H^(-1) comes from dpotri,
    # not from solving against an identity matrix
    tree = ast.parse(LINEAR_POSTERIOR.read_text())

    def name(func):
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name(node.func) == "cho_solve":
            inner = {name(sub.func) for arg in node.args for sub in ast.walk(arg)
                     if isinstance(sub, ast.Call)}
            assert inner & {"eye", "identity"} == set()
    fit = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "fit")
    reads = {(sub.value.id, sub.attr) for sub in ast.walk(fit)
             if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)}
    assert ("prior", "matrix") not in reads
