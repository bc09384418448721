import ast
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose
from scipy import integrate

from bayesinv import gp_rkhs as gr
from bayesinv import spline as sp

SPLINE = Path(__file__).resolve().parent.parent / "src" / "bayesinv" / "spline.py"


def integrated_wiener_oracle(l, x, x_prime):
    """Reference covariance by exact polynomial integration, one pair at a time.

    Integrates (x-u)^l (x'-u)^l / (l!)^2 over [0, min(x, x')] in the monomial
    basis. With Fraction arguments every step is exact rational arithmetic;
    with floats the expansion loses up to ~1e-14 relative at l = 3.
    """
    v = min(x, x_prime)
    if v <= 0.0:
        return 0.0
    p = npoly.polymul(npoly.polypow([x, -1], l), npoly.polypow([x_prime, -1], l))
    antider = npoly.polyint(p)
    return float(npoly.polyval(v, antider)) / math.factorial(l) ** 2


def oracle_gram(l, rows, cols):
    return np.array([[integrated_wiener_oracle(l, a, b) for b in cols] for a in rows])


def closed_gram(l, rows, cols):
    return sp.integrated_wiener_cov(l, rows[:, None], cols[None, :])


def dense_khat(x, sigma2, sigma2_theta):
    """Cubic-spline Khat = sigma2_theta K + sigma2 I, built in the test from the closed form."""
    return sigma2_theta * closed_gram(1, x, x) + sigma2 * np.eye(x.size)


def hand_spline_kernel(x, xp):
    """|x-x'| v^2/2 + v^3/3 in its hand-written evaluation order."""
    v = np.minimum(x, xp)
    return np.abs(x - xp) * v * v / 2.0 + v**3 / 3.0


class TestSplineKernel:
    def test_value_at_upper_corner(self):
        assert_allclose(sp.spline_kernel(1.0, 1.0), 1.0 / 3.0)

    def test_vanishes_at_origin(self):
        assert sp.spline_kernel(0.0, 0.7) == 0.0
        assert sp.spline_kernel(0.3, 0.0) == 0.0

    def test_matches_defining_integral(self):
        # oracle: quadrature of (x-u)_+ (x'-u)_+ over [0, 1]
        rng = np.random.default_rng(5)
        for _ in range(12):
            x, xp = rng.uniform(0, 1, 2)
            integrand = lambda u: max(x - u, 0.0) * max(xp - u, 0.0)
            oracle, _ = integrate.quad(integrand, 0.0, 1.0)
            assert abs(sp.spline_kernel(x, xp) - oracle) < 1e-8

    def test_domain_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sp.spline_kernel(1.2, 0.5)


class TestIntegratedWienerCov:
    def test_zero_fold_is_brownian_motion(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, xp = rng.uniform(0, 1, 2)
            assert_allclose(sp.integrated_wiener_cov(0, x, xp), min(x, xp), rtol=1e-12)

    def test_one_fold_matches_hand_formula(self):
        # spline_kernel is the l = 1 case; the closed form associates one
        # product differently from the hand formula, worst case measured
        # here 4.1e-16 relative (2 ulp)
        grid = np.linspace(0.0, 1.0, 301)
        hand = hand_spline_kernel(grid[:, None], grid[None, :])
        for got in (sp.integrated_wiener_cov(1, grid[:, None], grid[None, :]),
                    sp.spline_kernel(grid[:, None], grid[None, :])):
            assert np.all(np.abs(got - hand) <= 1e-15 * hand)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6))
    def test_matches_exact_oracle(self, draws):
        # grids hold x = 0 and x = 1, and the diagonal gives x = x'; the
        # oracle runs in exact rational arithmetic, so the bound is the
        # closed form's own rounding (measured worst 5.7e-16 relative)
        grid = np.array(sorted({0.0, 1.0, *draws}))
        exact = [Fraction(v) for v in grid]
        for l in range(4):
            got = sp.integrated_wiener_cov(l, grid[:, None], grid[None, :])
            ref = oracle_gram(l, exact, exact)
            assert np.all(np.abs(got - ref) <= 2e-14 * np.abs(ref))

    def test_scalar_input_returns_float(self):
        for l in range(4):
            assert type(sp.integrated_wiener_cov(l, 0.3, 0.8)) is float
        assert type(sp.spline_kernel(0.3, 0.8)) is float
        assert sp.integrated_wiener_cov(2, np.array([0.3, 0.5]), 0.8).shape == (2,)

    def test_vanishes_at_zero(self):
        for l in (0, 1, 2, 3):
            assert sp.integrated_wiener_cov(l, 0.0, 0.8) == 0.0

    def test_two_fold_matches_quadrature(self):
        # oracle: adaptive quadrature of the defining integral
        x, xp = 0.63, 0.29
        integrand = lambda u: (max(x - u, 0.0) ** 2 * max(xp - u, 0.0) ** 2) / 4.0
        oracle, _ = integrate.quad(integrand, 0.0, 1.0, points=[min(x, xp)], epsabs=1e-13)
        assert_allclose(sp.integrated_wiener_cov(2, x, xp), oracle, rtol=1e-10)

    def test_rejects_negative_fold(self):
        with pytest.raises(ValueError, match="l must be an integer >= 0"):
            sp.integrated_wiener_cov(-1, 0.5, 0.5)

    def test_high_fold_underflows_to_zero(self):
        # (l + 1) (l!)^2 exceeds the largest float from l = 100 on; the
        # coefficient is an int / int quotient, so it underflows instead of
        # raising OverflowError
        for l in (100, 200):
            assert sp.integrated_wiener_cov(l, 0.3, 0.5) == 0.0


def representer_basis_minimizer(x, y, tau):
    """Independent minimizer over the truncated-power basis.

    theta(t) = d0 + d1 t + sum_i c_i (t - x_i)_+^3 with the exact curvature
    penalty tau * 36 c^T J c, J_jk = int_0^1 (t-x_j)_+ (t-x_k)_+ dt.
    """
    n = len(x)
    design = np.hstack([np.ones((n, 1)), x[:, None], np.clip(x[:, None] - x[None, :], 0, None) ** 3])
    jmat = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            lo = max(x[j], x[k])
            anti = lambda t: t**3 / 3 - (x[j] + x[k]) * t**2 / 2 + x[j] * x[k] * t
            jmat[j, k] = anti(1.0) - anti(lo)
    pen = np.zeros((n + 2, n + 2))
    pen[2:, 2:] = 36.0 * jmat
    coef = np.linalg.solve(design.T @ design + tau * pen, design.T @ y)
    return design @ coef


class TestSplineFit:
    def test_recovers_exact_line(self):
        x = np.linspace(0.05, 0.95, 15)
        y = 1.5 + 2.0 * x
        fit = sp.spline_fit(x, y, sigma2=1e-8, sigma2_theta=1.0)
        grid = np.linspace(0, 1, 101)
        assert np.abs(sp.spline_predict(fit, grid) - (1.5 + 2.0 * grid)).max() < 1e-3

    def test_two_points_interpolated(self):
        x = np.array([0.3, 0.7])
        y = np.array([1.0, -1.0])
        fit = sp.spline_fit(x, y, sigma2=1e-10, sigma2_theta=1.0)
        assert_allclose(sp.spline_predict(fit, x), y, atol=1e-8)

    def test_matches_representer_basis_minimizer(self):
        # oracle: direct minimization over the truncated-power basis with
        # tau = sigma2 / sigma2_theta
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.05, 0.95, 10))
        y = np.sin(2 * math.pi * x) + 0.3 * rng.standard_normal(10)
        sigma2, sigma2_theta = 0.04, 1.0
        fit = sp.spline_fit(x, y, sigma2, sigma2_theta)
        oracle = representer_basis_minimizer(x, y, sigma2 / sigma2_theta)
        assert np.abs(sp.spline_predict(fit, x) - oracle).max() < 1e-6

    def test_gls_normal_equations_residual(self):
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(0.1, 0.9, 12))
        y = rng.standard_normal(12)
        fit = sp.spline_fit(x, y, 0.1, 2.0)
        ki = np.linalg.inv(dense_khat(x, 0.1, 2.0))
        hmat = np.vstack([np.ones(12), x]).T
        lhs = (hmat.T @ ki @ hmat) @ fit.beta_hat
        rhs = hmat.T @ ki @ y
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_input_validation(self):
        x = np.array([0.1, 0.5, 0.4])
        with pytest.raises(ValueError, match="increasing"):
            sp.spline_fit(x, np.zeros(3), 0.1, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            sp.spline_fit(np.array([0.0, 0.5, 0.9]), np.zeros(3), 0.1, 1.0)
        with pytest.raises(ValueError, match="positive"):
            sp.spline_fit(np.array([0.1, 0.5, 0.9]), np.zeros(3), 0.0, 1.0)
        with pytest.raises(ValueError, match="sigma2"):
            sp.spline_fit(np.array([0.1, 0.5, 0.9]), np.zeros(3), math.nan, 1.0)
        with pytest.raises(ValueError, match="order m"):
            sp.spline_fit(np.array([0.1, 0.5, 0.9]), np.zeros(3), 0.1, 1.0, m_order=4)

    def test_empty_knots_named(self):
        with pytest.raises(ValueError, match="^x must hold at least one"):
            sp.spline_fit(np.array([]), np.array([]), 0.1, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_y_named(self, bad):
        with pytest.raises(ValueError, match="^y must be finite"):
            sp.spline_fit(np.array([0.1, 0.5, 0.9]), np.array([0.0, bad, 1.0]), 0.1, 1.0)


class TestSplinePredict:
    @pytest.fixture
    def fit(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.15, 0.85, 8))
        y = np.cos(2 * math.pi * x) + 0.2 * rng.standard_normal(8)
        return sp.spline_fit(x, y, 0.05, 1.0)

    def test_linear_before_first_knot(self, fit):
        xs = np.linspace(0.0, fit.x_train[0], 12)
        vals = sp.spline_predict(fit, xs)
        assert np.abs(np.diff(vals, 2)).max() < 1e-10 * max(1.0, np.abs(vals).max())

    def test_linear_after_last_knot(self, fit):
        xs = np.linspace(fit.x_train[-1], 1.0, 12)
        vals = sp.spline_predict(fit, xs)
        assert np.abs(np.diff(vals, 2)).max() < 1e-10 * max(1.0, np.abs(vals).max())

    def test_piecewise_cubic_between_knots(self, fit):
        for a, b in zip(fit.x_train[:-1], fit.x_train[1:]):
            xs = np.linspace(a + 1e-9, b - 1e-9, 9)
            vals = sp.spline_predict(fit, xs)
            scale = max(1.0, np.abs(vals).max())
            assert np.abs(np.diff(vals, 4)).max() < 1e-6 * scale

    def test_interpolation_limit(self):
        x = np.array([0.2, 0.4, 0.8])
        y = np.array([0.5, -1.0, 2.0])
        fit = sp.spline_fit(x, y, sigma2=1e-12, sigma2_theta=1.0)
        assert np.abs(sp.spline_predict(fit, x) - y).max() < 1e-6

    def test_domain_error(self, fit):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sp.spline_predict(fit, 1.5)


def oracle_spline_predict(x, y, sigma2, sigma2_theta, m_order, xs, gram=oracle_gram):
    """GLS smoothing-spline fit, every solve taken against a dense Khat."""
    l = m_order - 1
    khat = sigma2_theta * gram(l, x, x) + sigma2 * np.eye(x.size)
    hmat = np.vander(x, m_order, increasing=True)
    ki_h = np.linalg.solve(khat, hmat)
    beta = np.linalg.solve(hmat.T @ ki_h, ki_h.T @ y)
    coef = np.linalg.solve(khat, y - hmat @ beta)
    return np.vander(xs, m_order, increasing=True) @ beta + sigma2_theta * gram(l, xs, x) @ coef


class TestHigherOrder:
    @pytest.mark.parametrize("m_order", [1, 3])
    def test_matches_oracle_gram_fit(self, m_order):
        rng = np.random.default_rng(20 + m_order)
        x = np.sort(rng.uniform(0.05, 0.95, 25))
        y = np.sin(5 * x) + 0.1 * rng.standard_normal(25)
        xs = np.linspace(0.0, 1.0, 41)
        fit = sp.spline_fit(x, y, 0.01, 1.3, m_order)
        oracle = oracle_spline_predict(x, y, 0.01, 1.3, m_order, xs)
        assert np.abs(sp.spline_predict(fit, xs) - oracle).max() < 1e-10

    @pytest.mark.parametrize("m_order", [1, 2, 3])
    def test_matches_dense_khat_formula(self, m_order):
        # the gp_fit path against dense solves on the same closed-form Khat:
        # 9.9e-15 relative at most, measured over m = 1 (on the chain), 2, 3
        rng = np.random.default_rng(40 + m_order)
        x = np.sort(rng.uniform(0.02, 0.98, 60))
        y = np.sin(6 * x) + 0.1 * rng.standard_normal(60)
        xs = np.linspace(0.0, 1.0, 101)
        got = sp.spline_predict(sp.spline_fit(x, y, 0.01, 1.3, m_order), xs)
        dense = oracle_spline_predict(x, y, 0.01, 1.3, m_order, xs, closed_gram)
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_m2_values_move_by_last_bits_only(self, monkeypatch):
        # against the hand formula as covariance, the closed form moves the
        # m = 2 values by last bits only: 1.3e-14 measured on this case. The
        # patch goes where the l >= 1 kernel's evaluate looks the name up,
        # and the curve must move, or the two fits ran the same covariance
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0.02, 0.98, 60))
        y = np.sin(6 * x) + 0.1 * rng.standard_normal(60)
        grid = np.linspace(0.0, 1.0, 301)
        new = sp.spline_predict(sp.spline_fit(x, y, 0.01, 1.3), grid)
        monkeypatch.setattr(gr, "integrated_wiener_cov", lambda l, a, b: hand_spline_kernel(a, b))
        old = sp.spline_predict(sp.spline_fit(x, y, 0.01, 1.3), grid)
        assert 0.0 < np.abs(new - old).max() <= 3e-14

    def test_m1_constant_null_space(self):
        x = np.linspace(0.1, 0.9, 9)
        y = np.full(9, 2.5)
        fit = sp.spline_fit(x, y, 1e-8, 1.0, m_order=1)
        grid = np.linspace(0, 1, 33)
        assert np.abs(sp.spline_predict(fit, grid) - 2.5).max() < 1e-4

    def test_m3_quadratic_null_space(self):
        x = np.linspace(0.1, 0.9, 12)
        y = 1.0 - 0.5 * x + 2.0 * x**2
        fit = sp.spline_fit(x, y, 1e-10, 1.0, m_order=3)
        grid = np.linspace(0, 1, 41)
        expect = 1.0 - 0.5 * grid + 2.0 * grid**2
        assert np.abs(sp.spline_predict(fit, grid) - expect).max() < 1e-4


def test_w1_covariance_monte_carlo():
    # oracle: simulate the once-integrated white-noise process on a fine grid
    rng = np.random.default_rng(7)
    nsteps, npaths = 1000, 10000
    du = 1.0 / nsteps
    u = (np.arange(nsteps) + 0.5) * du
    w_a = np.clip(0.3 - u, 0.0, None)
    w_b = np.clip(0.7 - u, 0.0, None)
    z = rng.standard_normal((npaths, nsteps))
    path_a = z @ w_a * math.sqrt(du)
    path_b = z @ w_b * math.sqrt(du)
    emp = np.mean(path_a * path_b) - path_a.mean() * path_b.mean()
    exact = sp.spline_kernel(0.3, 0.7)
    assert abs(emp - exact) / exact < 0.05


def test_roughness_decreases_with_penalty_weight():
    rng = np.random.default_rng(9)
    x = np.sort(rng.uniform(0.05, 0.95, 25))
    y = np.sin(4 * math.pi * x) + 0.3 * rng.standard_normal(25)
    grid = np.linspace(0.01, 0.99, 400)
    h = grid[1] - grid[0]
    roughness = []
    for tau in (0.01, 1.0, 100.0):
        fit = sp.spline_fit(x, y, sigma2=tau, sigma2_theta=1.0)
        vals = sp.spline_predict(fit, grid)
        second = np.diff(vals, 2) / h**2
        roughness.append(float(np.sum(second**2) * h))
    assert roughness[0] > roughness[1] > roughness[2]


def test_module_factors_nothing():
    # gp_fit is the one place a GP Gram matrix is built and factored, the
    # fit's solve the one way to apply its inverse, and a fit keeps no n x n
    # Khat beside the factor
    banned = {"cholesky", "cho_factor", "cond", "cho_solve", "solve_triangular"}
    called, read = set(), set()
    for node in ast.walk(ast.parse(SPLINE.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "scipy" not in (getattr(node, "module", None) or ""), ast.dump(node)
            assert not any(alias.name.startswith("scipy") for alias in node.names)
    assert called & banned == set()
    assert read & {"_chol", "chol_lower"} == set()
    assert "khat" not in {f.name for f in dataclasses.fields(sp.SplineFit)}
