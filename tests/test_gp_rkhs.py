import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, linalg

from bayesinv import cli
from bayesinv import fd_priors as fp
from bayesinv import forward_ops as fo
from bayesinv import gp_rkhs as gr
from bayesinv import linear_posterior as lp
from bayesinv import spline as sp

BM_EIGS = np.array([1.0 / ((j - 0.5) ** 2 * math.pi**2) for j in range(1, 9)])
GP_RKHS = Path(__file__).resolve().parent.parent / "src" / "bayesinv" / "gp_rkhs.py"


def _quad_spectral_kernel(b, taus):
    """Oracle: invert [sum_m b_m (4 pi^2 s^2)^m]^(-1) with one adaptive
    Fourier (cosine-weighted) quadrature per lag over the half line."""
    b = np.asarray(b, dtype=float)
    powers = np.arange(b.size)

    def spectrum(s):
        return 1.0 / np.sum(b * (4.0 * math.pi**2 * s * s) ** powers)

    out = []
    for tau in np.abs(np.asarray(taus, dtype=float)):
        if tau == 0.0:
            val, _ = integrate.quad(spectrum, 0.0, np.inf, epsabs=1e-12, epsrel=1e-11)
        else:
            val, _ = integrate.quad(
                spectrum, 0.0, np.inf, weight="cos", wvar=2.0 * math.pi * tau, limlst=200
            )
        out.append(2.0 * val)
    return np.array(out)


@st.composite
def spectrum_coeffs(draw):
    """b_0..b_M with M in 1..4, b_m in [0, 3] and b_0, b_M at least 0.1."""
    order = draw(st.integers(1, 4))
    inner = draw(st.lists(st.floats(0.0, 3.0), min_size=order - 1, max_size=order - 1))
    return [draw(st.floats(0.1, 3.0)), *inner, draw(st.floats(0.1, 3.0))]


class TestGram:
    def test_ou_diagonal_is_half_of_rate_inverse(self):
        kern = gr.ou_kernel(1.0)
        g = gr.gram(kern, np.array([0.1, 0.4, 0.9]))
        assert_allclose(np.diag(g), 0.5)

    def test_diagonal_equals_pointwise_evaluation(self):
        kern = gr.squared_exponential_kernel(0.3)
        pts = np.array([0.0, 0.2, 0.77])
        g = gr.gram(kern, pts)
        for i, p in enumerate(pts):
            assert_allclose(g[i, i], kern.evaluate(p, p))

    def test_brownian_hand_values(self):
        g = gr.gram(gr.brownian_motion_kernel(), np.array([0.2, 0.5, 0.9]))
        expect = np.array([[0.2, 0.2, 0.2], [0.2, 0.5, 0.5], [0.2, 0.5, 0.9]])
        assert_allclose(g, expect)

    @settings(max_examples=30)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=10, unique=True))
    def test_symmetry_and_psd(self, pts):
        pts = np.array(pts)
        for kern in (gr.ou_kernel(2.0), gr.squared_exponential_kernel(0.25),
                     gr.brownian_motion_kernel(), gr.spline_cubic_kernel()):
            g = gr.gram(kern, pts)
            assert np.abs(g - g.T).max() < 1e-12
            assert np.linalg.eigvalsh(g).min() >= -1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_vector_points_match_per_pair_evaluation(self, d):
        # oracle: the per-pair loop gram() used for (n, d) points
        kern = gr.squared_exponential_kernel(0.4, d=d)
        pts = np.random.default_rng(d).uniform(-1.0, 1.0, (9, d))
        expect = np.array([[kern.evaluate(p, q) for q in pts] for p in pts])
        g = gr.gram(kern, pts)
        assert g.shape == (9, 9)
        assert_allclose(g, expect, rtol=1e-15, atol=0)


class TestNystrom:
    def test_brownian_top_eigenvalue(self):
        # oracle: eigenvalues 1/((j-1/2)^2 pi^2) of the min-kernel integral
        # equation; a single i.i.d. draw carries a few-percent Monte Carlo
        # error, so the stream is pinned
        pairs = gr.nystrom_eigen(gr.brownian_motion_kernel(), 1000, 1, seed=7)
        lam1 = pairs[0][0]
        assert abs(lam1 - BM_EIGS[0]) / BM_EIGS[0] < 0.02

    def test_scaled_brownian_kernel(self):
        # variance * min(x, x') bit for bit (the kernel scales the inputs),
        # q = variance * delta, and lambda_j = variance * the Brownian lambda_j
        # to rounding, with the same eigenfunctions
        grid = np.concatenate([[0.0, 1.0], np.random.default_rng(3).uniform(0.0, 1.0, 50)])
        unit = gr.brownian_motion_kernel()
        for variance in (0.1, 1.0, 2.5, 10.0):
            kern = gr.integrated_wiener_kernel(0, variance)
            assert np.array_equal(kern.evaluate(grid[:, None], grid[None, :]),
                                  variance * np.minimum(grid[:, None], grid[None, :]))
            phi, q = kern.markov(0.25, 0.75)
            assert phi == 1.0 and q == variance * 0.5
            for j in range(1, 9):
                lam, psi = kern.analytic_eigen(j)
                assert abs(lam - variance * BM_EIGS[j - 1]) <= 1e-15 * lam
                assert np.array_equal(psi(grid), unit.analytic_eigen(j)[1](grid))

    def test_eigenvalues_non_increasing(self):
        pairs = gr.nystrom_eigen(gr.ou_kernel(1.0), 200, 6, seed=0)
        lams = [p[0] for p in pairs]
        assert all(a >= b for a, b in zip(lams, lams[1:]))

    def test_eigenvectors_unit_norm(self):
        pairs = gr.nystrom_eigen(gr.brownian_motion_kernel(), 150, 4, seed=1)
        for _, u in pairs:
            assert_allclose(u @ u, 1.0, rtol=1e-10)

    def test_count_validation(self):
        with pytest.raises(ValueError, match="count"):
            gr.nystrom_eigen(gr.ou_kernel(1.0), 10, 11, seed=0)

    def test_error_decreases_with_n_on_average(self):
        # Baker-style convergence; averaged over seeds because a single
        # i.i.d. draw gives a stochastic error that need not be monotone
        mean_err = []
        for n in (100, 400, 1600):
            errs = []
            for s in range(10):
                pairs = gr.nystrom_eigen(gr.brownian_motion_kernel(), n, 3, seed=[s, n])
                lams = np.array([p[0] for p in pairs])
                errs.append(np.abs(lams - BM_EIGS[:3]))
            mean_err.append(np.mean(errs, axis=0))
        mean_err = np.array(mean_err)
        assert np.all(mean_err[1] < mean_err[0])
        assert np.all(mean_err[2] < mean_err[1])


class TestRkhsNorm:
    def test_single_coefficient(self):
        lam1 = BM_EIGS[0]
        assert_allclose(gr.rkhs_norm_truncated([lam1], [lam1]), lam1)

    def test_zero_coefficients(self):
        assert gr.rkhs_norm_truncated(np.zeros(5), np.ones(5)) == 0.0

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(ValueError, match="positive"):
            gr.rkhs_norm_truncated([1.0, 1.0], [1.0, 0.0])

    def test_reproducing_property_truncated_mercer(self):
        # oracle: truncated Mercer series of the min kernel; the inner
        # product is recovered from the squared norm by polarization
        kern = gr.brownian_motion_kernel()
        n_terms = 200
        lams = np.array([kern.analytic_eigen(j)[0] for j in range(1, n_terms + 1)])
        x0, x = 0.37, 0.61
        f_coeffs = np.array([lams[j - 1] * kern.analytic_eigen(j)[1](x0) for j in range(1, n_terms + 1)])
        k_coeffs = np.array([lams[j - 1] * kern.analytic_eigen(j)[1](x) for j in range(1, n_terms + 1)])
        plus = gr.rkhs_norm_truncated(f_coeffs + k_coeffs, lams)
        minus = gr.rkhs_norm_truncated(f_coeffs - k_coeffs, lams)
        inner = (plus - minus) / 4.0
        truncation_bound = 2.0 * np.sum(1.0 / ((np.arange(n_terms + 1, n_terms + 2000) - 0.5) ** 2 * math.pi**2)) + 1e-4
        assert abs(inner - kern.evaluate(x0, x)) < truncation_bound


class TestGPRegression:
    def test_zero_data_gives_zero_mean(self):
        x = np.array([0.1, 0.5, 0.8])
        fit = gr.gp_fit(x, np.zeros(3), gr.ou_kernel(1.0), sigma=0.2)
        assert_allclose(fit.coefficients, 0.0)
        assert gr.gp_predict(fit, 0.3)[0] == 0.0

    def test_scalar_case(self):
        # K(x1,x1) = 1 for the OU kernel with b = 1/2
        fit = gr.gp_fit(np.array([0.5]), np.array([2.0]), gr.ou_kernel(0.5), sigma=1.0)
        assert_allclose(fit.coefficients, [1.0])
        mean, _ = gr.gp_predict(fit, 0.5)
        assert_allclose(mean, 1.0)

    def test_matches_joint_gaussian_conditioning(self):
        # oracle: condition the dense (n+1)-dimensional joint Gaussian
        rng = np.random.default_rng(13)
        x = np.sort(rng.uniform(0, 1, 8))
        y = rng.standard_normal(8)
        kern = gr.squared_exponential_kernel(0.2)
        sigma = 0.3
        fit = gr.gp_fit(x, y, kern, sigma)
        for x_star in (0.05, 0.42, 0.9):
            joint = np.zeros((9, 9))
            joint[0, 0] = kern.evaluate(x_star, x_star)
            joint[0, 1:] = kern.evaluate(x_star, x)
            joint[1:, 0] = joint[0, 1:]
            joint[1:, 1:] = gr.gram(kern, x) + sigma**2 * np.eye(8)
            prec = np.linalg.inv(joint[1:, 1:])
            mean_oracle = joint[0, 1:] @ prec @ y
            var_oracle = joint[0, 0] - joint[0, 1:] @ prec @ joint[1:, 0]
            mean, var = gr.gp_predict(fit, x_star)
            assert_allclose(mean, mean_oracle, rtol=1e-9, atol=1e-12)
            assert_allclose(var, var_oracle, rtol=1e-8, atol=1e-12)

    def test_far_point_reverts_to_prior(self):
        x = np.linspace(0.01, 0.05, 5)
        y = np.ones(5)
        kern = gr.squared_exponential_kernel(0.01)
        fit = gr.gp_fit(x, y, kern, sigma=0.1)
        mean, var = gr.gp_predict(fit, 0.95)
        assert abs(mean) < 1e-12
        assert_allclose(var, kern.evaluate(0.95, 0.95), rtol=1e-10)

    def test_interpolation_limit(self):
        x = np.array([0.2, 0.5, 0.7])
        y = np.array([1.0, -2.0, 0.5])
        fit = gr.gp_fit(x, y, gr.ou_kernel(1.0), sigma=1e-5)
        for xi, yi in zip(x, y):
            mean, _ = gr.gp_predict(fit, xi)
            assert abs(mean - yi) < 1e-4

    def test_representer_identity(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 1, 12))
        y = rng.standard_normal(12)
        kern = gr.ou_kernel(2.0)
        fit = gr.gp_fit(x, y, kern, sigma=0.2)
        for x_star in rng.uniform(0, 1, 20):
            mean, _ = gr.gp_predict(fit, x_star)
            explicit = sum(c * kern.evaluate(x_star, xi) for c, xi in zip(fit.coefficients, x))
            assert abs(mean - explicit) < 1e-12

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(0, 1, 10))
        y = rng.standard_normal(10)
        kern = gr.spline_cubic_kernel()
        fit = gr.gp_fit(x, y, kern, sigma=0.1)
        for x_star in rng.uniform(0.01, 1, 50):
            _, var = gr.gp_predict(fit, x_star)
            assert var <= kern.evaluate(x_star, x_star) + 1e-12

    def test_conditioning_flag(self):
        x = np.linspace(0.1, 0.9, 12)
        fit = gr.gp_fit(x, np.sin(x), gr.squared_exponential_kernel(0.5), sigma=1e-9)
        assert fit.ill_conditioned
        assert fit.condition_estimate > gr.CONDITION_WARN_THRESHOLD
        ok = gr.gp_fit(x, np.sin(x), gr.squared_exponential_kernel(0.5), sigma=0.5)
        assert not ok.ill_conditioned

    def test_condition_number_computed_only_when_read(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fit computed a condition number")

        x = np.linspace(0.05, 0.95, 30)
        y = np.sin(4 * x)
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "cond", refuse)
            patched.setattr(np.linalg, "svd", refuse)
            gp = gr.gp_fit(x, y, gr.ou_kernel(2.0), 0.1)
            spline = sp.spline_fit(x, y, 0.01, 1.3).gp
        eye = np.eye(x.size)
        assert gp.condition_estimate == np.linalg.cond(gr.gram(gr.ou_kernel(2.0), x) + 0.1**2 * eye)
        khat = 1.3 * sp.integrated_wiener_cov(1, x[:, None], x[None, :]) + math.sqrt(0.01) ** 2 * eye
        assert spline.condition_estimate == np.linalg.cond(khat)

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            gr.gp_fit(np.array([0.1, 0.1, 0.5]), np.zeros(3), gr.ou_kernel(1.0), 0.1)

    @pytest.mark.parametrize("name, x, y, sigma", [
        ("x", [0.1, math.nan, 0.5], [0.0, 0.0, 0.0], 0.1),
        ("x", [0.1, 0.3, math.inf], [0.0, 0.0, 0.0], 0.1),
        ("y", [0.1, 0.3, 0.5], [0.0, math.nan, 0.0], 0.1),
        ("y", [0.1, 0.3, 0.5], [-math.inf, 0.0, 0.0], 0.1),
        ("sigma", [0.1, 0.3, 0.5], [0.0, 0.0, 0.0], math.nan),
        ("sigma", [0.1, 0.3, 0.5], [0.0, 0.0, 0.0], math.inf),
    ])
    def test_non_finite_input_named(self, name, x, y, sigma):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            gr.gp_fit(np.array(x), np.array(y), gr.ou_kernel(1.0), sigma)

    def test_empty_training_set_named(self):
        with pytest.raises(ValueError, match="^x must hold at least one"):
            gr.gp_fit(np.array([]), np.array([]), gr.ou_kernel(1.0), 0.1)

    def test_two_dimensional_x_named(self):
        x = np.array([[0.1], [0.5]])
        with pytest.raises(ValueError, match="^x must be a 1-d array"):
            gr.gp_fit(x, np.zeros_like(x), gr.ou_kernel(1.0), 0.1)

    def test_coefficients_solve_the_system(self):
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(0, 1, 9))
        y = rng.standard_normal(9)
        kern = gr.ou_kernel(1.5)
        sigma = 0.3
        fit = gr.gp_fit(x, y, kern, sigma)
        lhs = (gr.gram(kern, x) + sigma**2 * np.eye(9)) @ fit.coefficients
        assert np.linalg.norm(lhs - y) < 1e-10 * np.linalg.norm(y)

    def test_non_finite_kernel_values_named(self):
        # the triangular solve skips its own finiteness check, so the dense
        # path checks the cross-covariances by name
        base = gr.squared_exponential_kernel(0.3)

        def holey(x, xp):
            return np.where(np.asarray(x) == 0.5, np.nan, base.evaluate(x, xp))

        fit = gr.gp_fit(np.array([0.2, 0.8]), np.array([1.0, -1.0]), gr.CovarianceKernel(holey), 0.1)
        with pytest.raises(ValueError, match="^kernel must be finite$"):
            gr.gp_predict_curve(fit, [0.3, 0.5])

    def test_variance_clamp_error_on_inconsistent_kernel(self):
        # a dishonest evaluate whose pointwise diagonal undershoots its Gram
        base = gr.brownian_motion_kernel()

        def lying(x, xp):
            x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
            return np.where((x == 0.5) & (xp == 0.5), -1.0, base.evaluate(x, xp))

        kern = gr.CovarianceKernel(lying)
        fit = gr.gp_fit(np.array([0.2, 0.8]), np.array([1.0, -1.0]), kern, 0.1)
        with pytest.raises(ValueError, match="variance"):
            gr.gp_predict(fit, 0.5)


class TestKernelDomain:
    """Points outside a kernel's domain are refused by name, before any factorization."""

    def test_domains(self):
        for kern in (gr.brownian_motion_kernel(), gr.spline_cubic_kernel()):
            assert kern.domain == (0.0, 1.0)
        for kern in (gr.ou_kernel(1.0), gr.squared_exponential_kernel(0.3),
                     gr.spectral_numeric_kernel([1.0, 1.0])):
            assert kern.domain == (-math.inf, math.inf)
        fit = sp.spline_fit([0.2, 0.5, 0.8], [0.0, 1.0, 0.0], 0.1, 1.0)
        assert fit.gp.kernel.domain == (0.0, 1.0)

    def test_curve_outside_names_the_points(self):
        fit = gr.gp_fit([0.2, 0.5, 0.8], [0.0, 1.0, 0.0], gr.brownian_motion_kernel(), 0.1)
        with pytest.raises(ValueError, match=r"^xs must lie in \[0, 1\]$"):
            gr.gp_predict_curve(fit, [0.0, 0.5, 1.5])
        # the closed interval: both ends are inside
        means, variances = gr.gp_predict_curve(fit, [0.0, 1.0])
        assert means[0] == 0.0 and variances[0] == 0.0 and variances[1] > 0.0

    @pytest.mark.parametrize("kern", [gr.brownian_motion_kernel(), gr.spline_cubic_kernel()])
    def test_fit_outside_names_x(self, kern):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
            gr.gp_fit([-0.005, 0.5, 0.9], [0.1, 0.3, -0.2], kern, 0.1)


def _dense_system(data):
    """A fit under one of the CLI's kernels with n in [2, 300], and its dense K + sigma^2 I."""
    name = data.draw(st.sampled_from(sorted(cli.GP_KERNELS)), label="kernel")
    kern = cli.GP_KERNELS[name]({"b": data.draw(st.floats(0.2, 5.0), label="b"),
                                 "variance": data.draw(st.floats(0.5, 2.0), label="variance")})
    n = data.draw(st.integers(2, 300), label="n")
    sigma = data.draw(st.sampled_from([0.01, 0.1, 0.5]), label="sigma")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = np.sort(rng.uniform(0.02, 0.98, n))
    fit = gr.gp_fit(x, np.sin(6.0 * x) + sigma * rng.standard_normal(n), kern, sigma)
    return fit, gr.gram(kern, x) + sigma**2 * np.eye(n), rng


class TestDenseFactor:
    """``solve`` and the one-triangular-solve variances against dense references."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_variance_matches_two_solve_formula(self, data):
        fit, kmat, rng = _dense_system(data)
        xs = rng.uniform(0.0, 1.0, data.draw(st.integers(1, 60), label="points"))
        _, variances = gr.gp_predict_curve(fit, xs)
        # the two-solve form this replaced: k** - s^T (K + sigma^2 I)^(-1) s by cho_solve
        smat = fit.kernel.evaluate(xs[:, None], fit.x_train[None, :])
        w = linalg.cho_solve((linalg.cholesky(kmat, lower=True), True), smat.T)
        prior = fit.kernel.evaluate(xs, xs)
        oracle = np.clip(prior - np.sum(smat * w.T, axis=1), 0.0, None)
        assert np.max(np.abs(variances - oracle)) <= 1e-13 * np.max(prior)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_solve_matches_dense_solve(self, data):
        fit, kmat, rng = _dense_system(data)
        rhs = rng.standard_normal((kmat.shape[0], 3))
        ref = np.linalg.solve(kmat, rhs)
        tol = 1e-14 * np.linalg.cond(kmat) * np.max(np.abs(ref))
        assert np.max(np.abs(fit.solve(rhs) - ref)) <= tol
        assert np.max(np.abs(fit.solve(rhs[:, 0]) - ref[:, 0])) <= tol
        assert np.array_equal(fit.solve(fit.y_train), fit.coefficients)

    def test_fits_keep_no_optional_factor(self):
        for cls in (gr.GPRegressionFit, lp.GaussianPosterior):
            assert all(f.default is not None for f in dataclasses.fields(cls)), cls.__name__

    def test_only_the_owning_module_reads_a_factor(self):
        # the GP factor is private to gp_rkhs; a linear posterior's factor is
        # read only by linear_posterior
        owners = {"_chol": "gp_rkhs.py", "chol_lower": "linear_posterior.py"}
        for path in sorted(GP_RKHS.parent.glob("*.py")):
            reads = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and node.attr in owners}
            assert {owners[attr] for attr in reads} <= {path.name}, path.name


def _dense_twin(kern):
    """The same kernel without its Markov hook: the dense Gram path, the oracle."""
    return gr.CovarianceKernel(kern.evaluate, domain=kern.domain)


def _markov_problem(data):
    """An OU or Brownian-motion fit (variance in [0.1, 10]) on 1-300 unsorted distinct
    inputs with sigma in [1e-3, 1], and prediction points on the inputs, beyond
    both ends and between."""
    n = data.draw(st.integers(1, 300), label="n")
    sigma = data.draw(st.floats(1e-3, 1.0), label="sigma")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="brownian"):
        variance = data.draw(st.floats(0.1, 10.0), label="variance")
        kern, lo, hi = gr.integrated_wiener_kernel(0, variance), 0.0, 1.0
        x = rng.uniform(0.0, 1.0, n)
        if data.draw(st.booleans(), label="train at 0"):
            x[0] = 0.0
    else:
        kern, lo, hi = gr.ou_kernel(data.draw(st.floats(0.2, 5.0), label="b")), -1.0, 2.0
        x = rng.uniform(-0.5, 1.5, n)
    x = rng.permutation(x)
    xs = np.concatenate([x, [lo, hi], rng.uniform(lo, x.min(), 3), rng.uniform(x.max(), hi, 3),
                         rng.uniform(lo, hi, 20)])
    return kern, x, np.sin(6.0 * x) + sigma * rng.standard_normal(x.size), sigma, rng.permutation(xs)


class TestMarkovChain:
    """The O(n) chain path of OU and Brownian motion against the dense path of the same kernel."""

    def test_scalar_kernels_carry_the_hook(self):
        m1_spline = sp.spline_fit([0.2, 0.5, 0.8], [0.0, 1.0, 0.0], 0.1, 1.3, m_order=1)
        for kern in (gr.ou_kernel(1.0), gr.brownian_motion_kernel(), gr.integrated_wiener_kernel(0, 2.5),
                     m1_spline.gp.kernel):
            assert kern.markov is not None
        for kern in (gr.squared_exponential_kernel(0.3), gr.spline_cubic_kernel(),
                     gr.spectral_numeric_kernel([1.0, 1.0]), gr.matrix_kernel([0.0, 1.0], np.eye(2)),
                     *(gr.integrated_wiener_kernel(l, 2.5) for l in (1, 2, 3))):
            assert kern.markov is None

    def test_ou_step_variance_keeps_its_digits(self):
        # q = (1 - exp(-2 b delta)) / 2b by expm1, here delta (1 - delta) to
        # rounding; (1 - phi^2) / 2b would be off by ~1e-8 relative
        phi, q = gr.ou_kernel(1.0).markov(0.0, 1e-9)
        assert abs(q - 1e-9 * (1.0 - 1e-9)) <= 1e-15 * q
        assert phi == math.exp(-1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_dense_path(self, data):
        # measured worst over 800 draws: mean 5.7e-16 of the representer sum's
        # size, variance 1.6e-15 of the prior, coefficients and solves
        # 1.8e-16 cond max|ref| (the dense side carries most of these)
        kern, x, y, sigma, xs = _markov_problem(data)
        chain, dense = gr.gp_fit(x, y, kern, sigma), gr.gp_fit(x, y, _dense_twin(kern), sigma)
        means, variances = gr.gp_predict_curve(chain, xs)
        ref_means, ref_variances = gr.gp_predict_curve(dense, xs)
        size = np.abs(kern.evaluate(xs[:, None], x[None, :])) @ np.abs(dense.coefficients)
        assert np.all(np.abs(means - ref_means) <= 1e-14 * size)
        assert np.max(np.abs(variances - ref_variances)) <= 1e-14 * np.max(kern.evaluate(xs, xs))
        kmat = gr.gram(kern, x) + sigma**2 * np.eye(x.size)
        tol = 1e-14 * np.linalg.cond(kmat)
        ref = np.abs(dense.coefficients).max()
        assert np.max(np.abs(chain.coefficients - dense.coefficients)) <= tol * ref
        rhs = np.random.default_rng(x.size).standard_normal((x.size, 3))
        ref_solve = np.linalg.solve(kmat, rhs)
        for got, want in ((chain.solve(rhs), ref_solve), (chain.solve(rhs[:, 1]), ref_solve[:, 1])):
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(ref_solve))
        assert np.array_equal(chain.solve(chain.y_train), chain.coefficients)

    def test_edge_points_are_exact(self):
        # on a training point the bridge has weight 1 and no variance of its
        # own; Brownian motion is 0 with variance 0 at x = 0
        x = np.array([0.7, 0.0, 0.3])
        fit = gr.gp_fit(x, np.array([1.0, 5.0, -1.0]), gr.brownian_motion_kernel(), 0.1)
        means, variances = gr.gp_predict_curve(fit, [0.0, 0.3, 0.7])
        assert means[0] == 0.0 and variances[0] == 0.0
        assert fit.coefficients[1] == 5.0 / 0.1**2
        single = gr.gp_fit(np.array([0.0]), np.array([2.0]), gr.brownian_motion_kernel(), 0.5)
        assert single.coefficients[0] == 2.0 / 0.25
        assert gr.gp_predict(single, 0.6) == (0.0, 0.6)

    def test_nystrom_draw_at_zero_is_pinned(self, monkeypatch):
        # Brownian motion's value at 0 is 0: its eigenvalue is 0, its vector e_0
        class Draws:
            def uniform(self, lo, hi, size):
                return np.array([0.9, 0.0, 0.4])

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        pairs = gr.nystrom_eigen(gr.brownian_motion_kernel(), 3, 3, seed=0)
        vals, vecs = np.linalg.eigh(gr.gram(gr.brownian_motion_kernel(), Draws().uniform(0, 1, 3)))
        for (lam, u), val, vec in zip(pairs, vals[::-1], vecs.T[::-1]):
            assert abs(3 * lam - val) <= 1e-15 and abs(abs(u @ vec) - 1.0) <= 1e-15
        assert pairs[-1] == (0.0, pytest.approx([0.0, 1.0, 0.0], abs=0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["brownian", "ou", "ou_dense"]), n=st.integers(1, 400),
           count=st.integers(1, 6), b=st.floats(0.2, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_nystrom_matches_dsyevr(self, kind, n, count, b, seed):
        # eigenvalues to 1e-12 relative (measured 3.2e-14 on the chain, 7.3e-14
        # on the dense branch over 600 draws). Eigenvectors, up to sign, to
        # 1e-14 (||Q|| / gap(1/lambda) + lambda_1 / gap(lambda)): the
        # tridiagonal solver's error bound, with ||Q|| ~ 1 / (closest pair's
        # distance), plus dsyevr's own (measured worst 2.1e-16 of that, and
        # 4.3e-11 absolute). OU without its Markov hook takes the dense dsyevr
        # branch itself
        kern = {"brownian": gr.brownian_motion_kernel(), "ou": gr.ou_kernel(b),
                "ou_dense": dataclasses.replace(gr.ou_kernel(b), markov=None)}[kind]
        count = min(count, n)
        pairs = gr.nystrom_eigen(kern, n, count, seed)
        points = np.random.default_rng(seed).uniform(0.0, 1.0, n)
        vals, vecs = linalg.eigh(gr.gram(kern, points), driver="evr",
                                 subset_by_index=[max(n - count - 1, 0), n - 1])
        vals, vecs = vals[::-1], vecs[:, ::-1]
        norm = 1.0 / np.diff(np.sort(points)).min() if n > 1 else 1.0
        for j, (lam, u) in enumerate(pairs):
            assert abs(lam * n - vals[j]) <= 1e-12 * vals[j]
            others = np.delete(vals, j) if n > 1 else vals
            gap = np.min(np.abs(others - vals[j])) if n > 1 else vals[0]
            gap_inverse = np.min(np.abs(1.0 / others - 1.0 / vals[j])) if n > 1 else 1.0 / vals[0]
            sign = 1.0 if u @ vecs[:, j] > 0 else -1.0
            tol = 1e-14 * (norm / gap_inverse + vals[0] / gap)
            assert np.max(np.abs(u - sign * vecs[:, j])) <= tol

    def test_perfbench_oracles_hold_at_n700(self):
        # the gp_spline benchmark's two oracles at its sizes, over 200 draws:
        # (K + s^2 I) c = y to 1e-12 of its scale, and the representer sum to
        # 1e-12 of its terms (measured worst 3.4e-17 and 2.0e-17; 5.4e-16 and
        # 3.2e-17 without the refinement step)
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.0, 1.0, 401)
        worst = 0.0
        for draw in range(200):
            kern = gr.ou_kernel(rng.uniform(0.5, 2.0)) if draw % 2 else gr.brownian_motion_kernel()
            x = np.sort(rng.uniform(0.01, 0.99, 700))
            y = np.sin(2.0 * math.pi * rng.uniform(0.5, 1.5) * x) + 0.1 * rng.standard_normal(700)
            sigma = rng.uniform(0.05, 0.2)
            fit = gr.gp_fit(x, y, kern, sigma)
            means, _ = gr.gp_predict_curve(fit, grid)
            c = fit.coefficients
            kmat = gr.gram(kern, x)
            scale = (np.abs(kmat).sum(axis=1).max() + sigma**2) * np.abs(c).max()
            worst = max(worst, np.abs(kmat @ c + sigma**2 * c - y).max() / scale)
            for i in rng.choice(401, 5, replace=False):
                terms = c * kern.evaluate(grid[i], x)
                size = max(1.0, float(np.abs(terms).sum()))
                worst = max(worst, abs(means[i] - math.fsum(terms)) / size)
        assert worst < 1e-12

    def test_no_dense_matrix_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the chain path built a dense matrix")

        def one_dimensional(evaluate):
            def watched(a, b):
                assert np.ndim(a) <= 1 and np.ndim(b) <= 1, "an n x m kernel evaluation"
                return evaluate(a, b)
            return watched

        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, 50)
        for base in (gr.ou_kernel(1.5), gr.brownian_motion_kernel(), gr.integrated_wiener_kernel(0, 2.5)):
            kern = dataclasses.replace(base, evaluate=one_dimensional(base.evaluate))
            with monkeypatch.context() as patched:
                for name in ("gram", "_regularized_gram"):
                    patched.setattr(gr, name, refuse)
                for name in ("cholesky", "cho_factor", "eigh", "solve_triangular"):
                    patched.setattr(linalg, name, refuse)
                patched.setattr(np.linalg, "cholesky", refuse)
                fit = gr.gp_fit(x, np.sin(5.0 * x), kern, 0.1)
                gr.gp_predict_curve(fit, np.linspace(0.0, 1.0, 41))
                gr.gp_predict(fit, 0.5)
                fit.solve(np.ones((50, 2)))
                gr.nystrom_eigen(kern, 60, 3, seed=1)

    @pytest.mark.parametrize("kernel, mean_bound, sd_bound", [
        ("ou", 6e-14, 1e-14), ("brownian", 2e-14, 2e-14), ("spline", 2e-14, 4e-14)])
    def test_golden_curves_moved_within_reported_bounds(self, kernel, mean_bound, sd_bound):
        # the gp goldens were regenerated for the chain path (ou, brownian) and
        # the Horner integrated-Wiener covariance (spline); these are the
        # relative changes the golden test reported against the dense path and
        # the summed-powers covariance
        def summed_powers(x, xp):
            v, d = np.minimum(x, xp), np.abs(x - xp)
            return d * v**2 / 2.0 + v**3 / 3.0

        golden = Path(__file__).resolve().parent / "golden" / f"gp_{kernel}"
        x, y = np.loadtxt(golden / "data.csv", delimiter=",", skiprows=1).T
        params = cli.DEFAULTS["gp"]
        kern = cli.GP_KERNELS[kernel](params)
        old = (gr.CovarianceKernel(lambda a, b: params["variance"] * summed_powers(a, b), domain=kern.domain)
               if kernel == "spline" else _dense_twin(kern))
        grid = np.linspace(0.0, 1.0, 51)
        new_mean, new_var = gr.gp_predict_curve(gr.gp_fit(x, y, kern, params["sigma"]), grid)
        old_mean, old_var = gr.gp_predict_curve(gr.gp_fit(x, y, old, params["sigma"]), grid)
        with np.errstate(invalid="ignore"):
            rel_mean = np.abs(new_mean - old_mean) / np.abs(old_mean)
            rel_sd = np.abs(np.sqrt(new_var) - np.sqrt(old_var)) / np.sqrt(old_var)
        assert np.nanmax(rel_mean) <= mean_bound
        assert np.nanmax(rel_sd) <= sd_bound


class TestSpectralKernel:
    def test_recovers_ou_covariance(self):
        taus = np.linspace(0, 3, 61)
        for b in (0.5, 1.0, 2.0):
            vals = gr.spectral_kernel([b * b, 1.0], taus)
            exact = np.exp(-b * taus) / (2 * b)
            assert np.abs(vals - exact).max() < 1e-4

    def test_even_in_lag(self):
        taus = np.array([-1.3, -0.2, 0.2, 1.3])
        vals = gr.spectral_kernel([1.0, 0.5, 0.25], taus)
        assert_allclose(vals[0], vals[3], rtol=1e-10)
        assert_allclose(vals[1], vals[2], rtol=1e-10)

    def test_zero_lag_matches_spectrum_mass(self):
        # oracle: independent adaptive quadrature of the full spectrum
        b = np.array([1.0, 0.7, 0.3])
        spec = lambda s: 1.0 / (b[0] + b[1] * (4 * math.pi**2 * s**2) + b[2] * (4 * math.pi**2 * s**2) ** 2)
        mass, _ = integrate.quad(spec, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12)
        val = gr.spectral_kernel(b, np.array([0.0]))[0]
        assert abs(val - mass) < 1e-6

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError, match="b_0"):
            gr.spectral_kernel([0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="M >= 1"):
            gr.spectral_kernel([1.0], [0.0])
        with pytest.raises(ValueError, match="M >= 1"):
            gr.spectral_kernel([1.0, 0.0, 0.0], [0.0])

    def test_tabulated_kernel_object(self):
        kern = gr.spectral_numeric_kernel([1.0, 1.0])
        taus = np.linspace(0, 1.5, 7)
        assert np.abs(kern.evaluate(taus, 0.0) - np.exp(-taus) / 2).max() < 1e-4
        pts = np.linspace(0.05, 0.95, 10)
        g = gr.gram(kern, pts)
        assert np.linalg.eigvalsh(g).min() >= -1e-9
        for tau in (2.5, 10.0):
            assert abs(kern.evaluate(0.0, tau) - math.exp(-tau) / 2) < 1e-14

    @settings(max_examples=10, deadline=None)
    @given(spectrum_coeffs())
    def test_matches_quadrature_inversion(self, b):
        taus = np.linspace(-3.0, 3.0, 11)
        vals = gr.spectral_kernel(b, taus)
        scale = gr.spectral_kernel(b, 0.0)
        assert np.abs(vals - _quad_spectral_kernel(b, taus)).max() < 1e-8 * scale

    @pytest.mark.parametrize("b, closed_form", [
        ([0.25, 1.0], lambda t: np.exp(-0.5 * t)),
        ([1.0, 1.0], lambda t: np.exp(-t) / 2),
        ([4.0, 1.0], lambda t: np.exp(-2 * t) / 4),
        # Matern 3/2 and 5/2: repeated roots of sum_m b_m u^m
        ([1.0, 2.0, 1.0], lambda t: (1 + t) * np.exp(-t) / 4),
        ([1.0, 3.0, 3.0, 1.0], lambda t: 3 / 16 * (1 + t + t * t / 3) * np.exp(-t)),
    ])
    def test_matches_closed_forms(self, b, closed_form):
        taus = np.linspace(-3.0, 3.0, 301)
        vals = gr.spectral_kernel(b, taus)
        assert np.abs(vals - closed_form(np.abs(taus))).max() < 1e-14

    def test_trailing_zero_coefficients_trimmed(self):
        taus = np.linspace(0.0, 3.0, 13)
        assert_allclose(gr.spectral_kernel([1.0, 1.0, 0.0], taus),
                        gr.spectral_kernel([1.0, 1.0], taus), rtol=1e-15, atol=0)

    def test_lag_shape_preserved(self):
        taus = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        vals = gr.spectral_kernel([1.0, 0.5, 0.25], taus)
        assert vals.shape == (2, 3)
        assert_allclose(vals.ravel(), gr.spectral_kernel([1.0, 0.5, 0.25], taus.ravel()),
                        rtol=1e-15, atol=0)
        scalar = gr.spectral_kernel([1.0, 0.5, 0.25], 0.7)
        assert isinstance(scalar, float)
        assert scalar == gr.spectral_kernel([1.0, 0.5, 0.25], np.array([0.7]))[0]

    def test_module_has_no_numeric_inversion(self):
        # the closed form is the only inversion: no quadrature or
        # interpolation module may return beside it
        banned = {"scipy.integrate", "scipy.interpolate"}
        imported = set()
        for node in ast.walk(ast.parse(GP_RKHS.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        assert imported & banned == set()


class TestPenaltyQuadraticForm:
    def test_zeroth_order_is_mean_square(self):
        theta = np.array([1.0, -2.0, 3.0, 0.5])
        val = gr.penalty_quadratic_form([1.0, 0.0], theta)
        assert_allclose(val, (theta @ theta) / 4.0)

    def test_affine_input_kills_second_order(self):
        n = 50
        theta = 3.0 * np.arange(n) / n + 1.0
        val = gr.penalty_quadratic_form([0.0, 0.0, 1.0], theta)
        assert val < 1e-18

    def test_first_order_matches_analytic_integral(self):
        # oracle: int (f')^2 = 2 pi^2 for f = sin(2 pi x)
        n = 400
        theta = np.sin(2 * np.pi * np.arange(n) / n)
        val = gr.penalty_quadratic_form([0.0, 1.0], theta)
        assert abs(val - 2 * math.pi**2) / (2 * math.pi**2) < 0.05

    def test_grid_size_validation(self):
        with pytest.raises(ValueError, match="n >="):
            gr.penalty_quadratic_form([1.0, 1.0, 1.0], np.zeros(4))
        with pytest.raises(ValueError, match="non-negative"):
            gr.penalty_quadratic_form([1.0, -1.0], np.zeros(10))


class TestBridgeToLinearPosterior:
    def test_grid_gp_matches_map_for_identity_operator(self):
        # restriction of the finite-difference prior to a GP kernel:
        # covariance ts^2 (M^T M)^(-1) on the grid nodes
        n = 50
        grid = fo.Grid(0.0, 1.0, n)
        op = fo.make_identity(grid)
        ts, sigma = 0.8, 0.15
        prior = fp.build_smooth_zero_boundary(n, tilde_sigma=ts)
        rng = np.random.default_rng(10)
        y = np.sin(2 * math.pi * grid.nodes) + sigma * rng.standard_normal(n)
        post = lp.fit(op, prior, y, sigma)
        cov = ts**2 * np.linalg.inv(prior.matrix.T @ prior.matrix)
        kern = gr.matrix_kernel(grid.nodes, cov)
        fit = gr.gp_fit(grid.nodes, y, kern, sigma)
        gp_means = np.array([gr.gp_predict(fit, float(xv))[0] for xv in grid.nodes])
        assert np.abs(gp_means - post.mean).max() < 1e-8

    def test_matrix_kernel_rejects_off_grid_points(self):
        pts = np.linspace(0, 1, 5)
        kern = gr.matrix_kernel(pts, np.eye(5))
        with pytest.raises(ValueError, match="point set"):
            kern.evaluate(0.33, 0.0)
        # fits check their points against the point set's range by name, and
        # a point in that range but off the set is named by its value
        kern = gr.matrix_kernel([0.0, 0.5, 1.0], np.eye(3))
        fit = gr.gp_fit([0.0, 0.5], [1.0, 2.0], kern, 0.1)
        with pytest.raises(ValueError, match=r"^matrix kernel evaluated at 0\.3, off its point set"):
            gr.gp_predict(fit, 0.3)
        with pytest.raises(ValueError, match=r"^x_star must lie in \[-1e-09, 1\.000000001\]$"):
            gr.gp_predict(fit, 1.5)
        with pytest.raises(ValueError, match="^xs must lie in"):
            gr.gp_predict_curve(fit, [0.5, -0.2])
        with pytest.raises(ValueError, match="^x must lie in"):
            gr.gp_fit([0.0, 2.0], [1.0, 2.0], kern, 0.1)
        # the range is widened by the lookup's tolerance
        assert gr.gp_predict(fit, 1.0 + 5e-10) == gr.gp_predict(fit, 1.0)

    def test_matrix_kernel_at_two_scalars_is_a_float(self):
        pts = np.linspace(0, 1, 5)
        cov = np.arange(25.0).reshape(5, 5)
        val = gr.matrix_kernel(pts, cov).evaluate(0.25, 0.75)
        assert type(val) is float and val == cov[1, 3]
