import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

from bayesinv import fd_priors as fp
from bayesinv import forward_ops as fo
from bayesinv import linear_posterior as lp


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


class TestPenaltyNorm:
    def test_laplacian_matches_analytic_integral(self):
        # oracle: int (f'')^2 = 8 pi^4 for f = sin(2 pi x)
        n = 400
        grid = np.arange(n) / n
        theta = np.sin(2 * np.pi * grid)
        prior = fp.build_smooth_interior(n)
        val = lp.discretized_penalty_norm(prior, theta, "laplacian")
        assert abs(val - 8 * np.pi**4) / (8 * np.pi**4) < 0.05

    def test_gradient_matches_analytic_integral(self):
        # oracle: int (f')^2 = 1 for f = x
        n = 400
        theta = np.arange(n) / n
        prior = fp.build_nonsmooth(n)
        val = lp.discretized_penalty_norm(prior, theta, "gradient")
        assert abs(val - 1.0) < 0.05

    def test_constant_input_vanishes(self):
        theta = np.full(50, 3.0)
        assert lp.discretized_penalty_norm(fp.build_smooth_zero_boundary(50), theta, "laplacian") < 1e-20
        assert lp.discretized_penalty_norm(fp.build_nonsmooth(50), theta, "gradient") < 1e-20

    def test_variant_order_mismatch(self):
        with pytest.raises(ValueError, match="smooth"):
            lp.discretized_penalty_norm(fp.build_nonsmooth(10), np.zeros(10), "laplacian")
        with pytest.raises(ValueError, match="non-smooth"):
            lp.discretized_penalty_norm(fp.build_smooth_interior(10), np.zeros(10), "gradient")
        with pytest.raises(ValueError, match="order"):
            lp.discretized_penalty_norm(fp.build_nonsmooth(10), np.zeros(10), "hessian")


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


def test_band_export(tmp_path):
    op, prior, y = deblur_problem(n=15)
    post = lp.fit(op, prior, y, 0.05)
    path = tmp_path / "bands.csv"
    lp.export_posterior_bands(post, str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,mean,lower,upper"
    assert len(rows) == 16
    for line in rows[1:]:
        x, m, lo, hi = map(float, line.split(","))
        assert lo < m < hi
