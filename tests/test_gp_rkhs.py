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

    def test_matrix_kernel_at_two_scalars_is_a_float(self):
        pts = np.linspace(0, 1, 5)
        cov = np.arange(25.0).reshape(5, 5)
        val = gr.matrix_kernel(pts, cov).evaluate(0.25, 0.75)
        assert type(val) is float and val == cov[1, 3]
