"""Smoothing splines of order m = 1, 2, 3 as Gaussian-process posterior means.

The process prior is the (m-1)-fold integrated Wiener process (the kernel
``gp_rkhs.integrated_wiener_kernel(m - 1, sigma2_theta)``) plus a polynomial
trend of degree m-1 whose coefficients get a vague prior. A spline fit is
``gp_fit`` under that kernel, then generalized least squares for the trend
through the fit's ``solve``: the exact vague-prior limit. At m = 1 the prior is
Brownian motion, so the fit runs on its O(n) Markov chain. The posterior mean
is the classical smoothing spline of order m (cubic for the default m = 2:
piecewise cubic between knots, linear outside them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _checks as check
from .gp_rkhs import GPRegressionFit, gp_fit, integrated_wiener_cov, integrated_wiener_kernel

__all__ = [
    "SplineFit",
    "spline_kernel",
    "integrated_wiener_cov",
    "spline_fit",
    "spline_predict",
]


def spline_kernel(x, x_prime):
    """Covariance |x-x'| v^2/2 + v^3/3 with v = min(x, x'), on [0, 1]^2.

    Equals the integral of (x-u)_+ (x'-u)_+ over u in [0, 1]: the l = 1 case
    of integrated_wiener_cov. Broadcasts.
    """
    return integrated_wiener_cov(1, x, x_prime)


def _poly_basis(x, m_order: int) -> np.ndarray:
    """Rows h(x) = (1, x, ..., x^(m-1)) for each evaluation point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.vander(x, m_order, increasing=True)


@dataclass(frozen=True, eq=False)
class SplineFit:
    gp: GPRegressionFit
    beta_hat: np.ndarray
    coefficients: np.ndarray = field(repr=False)
    m_order: int = 2

    @property
    def x_train(self) -> np.ndarray:
        return self.gp.x_train


def spline_fit(x, y, sigma2: float, sigma2_theta: float, m_order: int = 2) -> SplineFit:
    """Fit the smoothing spline of order m_order (default cubic, m=2).

    Knots must satisfy 0 < x_1 < ... < x_n < 1. ``gp_fit`` factors
    Khat = sigma2_theta * K + sigma2 * I, and the polynomial part is estimated
    by generalized least squares against Khat, the exact vague-prior limit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0 or not (np.all(np.diff(x) > 0) and x[0] > 0.0 and x[-1] < 1.0):
        raise ValueError("x must hold at least one knot, strictly increasing inside (0, 1)")
    sigma2 = check.positive("sigma2", sigma2)
    sigma2_theta = check.positive("sigma2_theta", sigma2_theta)
    check.count("m_order", m_order, 1, 3)
    if x.size < m_order:
        # fewer knots than trend coefficients leave the trend's GLS singular
        raise ValueError(f"x must hold at least m_order = {m_order} knots, got {x.size}")

    gp = gp_fit(x, y, integrated_wiener_kernel(m_order - 1, sigma2_theta), math.sqrt(sigma2))
    hmat = _poly_basis(x, m_order)  # n x m
    beta_hat = np.linalg.solve(hmat.T @ gp.solve(hmat), hmat.T @ gp.coefficients)
    coefficients = gp.solve(gp.y_train - hmat @ beta_hat)
    return SplineFit(gp, beta_hat, coefficients, m_order)


def spline_predict(fit: SplineFit, x_star):
    """Posterior-mean prediction h(x*)^T beta + s(x*)^T Khat^(-1)(y - H beta)."""
    if np.ndim(x_star) > 1:
        raise ValueError(f"x_star must be a scalar or a 1-d array, got shape {np.shape(x_star)}")
    xs = np.atleast_1d(np.asarray(x_star, dtype=float))
    check.inside("x_star", xs, fit.gp.kernel.domain)
    s = fit.gp.kernel.evaluate(xs[:, None], fit.x_train[None, :])
    vals = _poly_basis(xs, fit.m_order) @ fit.beta_hat + s @ fit.coefficients
    return float(vals[0]) if np.isscalar(x_star) or np.asarray(x_star).ndim == 0 else vals
