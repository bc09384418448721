"""Smoothing splines of order m = 1, 2, 3 as Gaussian-process posterior means.

The process prior is the (m-1)-fold integrated Wiener process plus a
polynomial trend of degree m-1 whose coefficients get a vague prior; the
vague limit is taken exactly via generalized least squares. The resulting
posterior mean is the classical smoothing spline of order m (cubic for the
default m = 2: piecewise cubic between knots, linear outside them).

All three orders share one closed-form covariance (Wecker & Ansley 1983): the
l-fold integrated Wiener process on [0, 1] has, with v = min(x, x'),

    k_l(x, x') = sum_{j=0..l} C(l, j) |x - x'|^(l-j) v^(l+j+1) / ((l+j+1) (l!)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .csvio import write_csv

__all__ = [
    "SplineFit",
    "spline_kernel",
    "integrated_wiener_cov",
    "spline_fit",
    "spline_predict",
    "export_spline_curve",
]


def _check_unit_interval(*values):
    for v in values:
        arr = np.asarray(v, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("arguments must lie in [0, 1]")


def spline_kernel(x, x_prime):
    """Covariance |x-x'| v^2/2 + v^3/3 with v = min(x, x'), on [0, 1]^2.

    Equals the integral of (x-u)_+ (x'-u)_+ over u in [0, 1]: the l = 1 case
    of integrated_wiener_cov. Broadcasts.
    """
    return integrated_wiener_cov(1, x, x_prime)


def integrated_wiener_cov(l: int, x, x_prime):
    """Covariance of the l-fold integrated Wiener process at (x, x').

    The integral of (x-u)_+^l (x'-u)_+^l / (l!)^2 over u in [0, 1], in the
    closed form of the module docstring. Broadcasts x against x_prime and
    returns a float for scalar input; l = 0 gives min(x, x').
    """
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ValueError(f"fold count l must be a non-negative integer, got {l}")
    _check_unit_interval(x, x_prime)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    v = np.minimum(x, xp)
    d = np.abs(x - xp)
    scale = math.factorial(l) ** 2
    out = sum(
        math.comb(l, j) * d ** (l - j) * v ** (l + j + 1) / ((l + j + 1) * scale)
        for j in range(l + 1)
    )
    return float(out) if out.ndim == 0 else out


def _poly_basis(x, m_order: int) -> np.ndarray:
    """Rows h(x) = (1, x, ..., x^(m-1)) for each evaluation point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.vander(x, m_order, increasing=True)


@dataclass(frozen=True)
class SplineFit:
    x_train: np.ndarray
    y_train: np.ndarray
    sigma2: float
    sigma2_theta: float
    beta_hat: np.ndarray
    khat: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    m_order: int = 2


def spline_fit(x, y, sigma2: float, sigma2_theta: float, m_order: int = 2) -> SplineFit:
    """Fit the smoothing spline of order m_order (default cubic, m=2).

    Knots must satisfy 0 < x_1 < ... < x_n < 1. The polynomial part is
    estimated by generalized least squares against
    Khat = sigma2_theta * K + sigma2 * I, which is the exact vague-prior limit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if not (np.all(np.diff(x) > 0) and x[0] > 0.0 and x[-1] < 1.0):
        raise ValueError("knots must be strictly increasing inside (0, 1)")
    if sigma2 <= 0 or sigma2_theta <= 0:
        raise ValueError("sigma2 and sigma2_theta must be positive")
    if m_order not in (1, 2, 3):
        raise ValueError(f"polynomial order m must be 1, 2 or 3, got {m_order}")
    kmat = integrated_wiener_cov(m_order - 1, x[:, None], x[None, :])
    khat = sigma2_theta * kmat + sigma2 * np.eye(x.shape[0])
    try:
        chol = linalg.cho_factor(khat, lower=True)
    except linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("Khat = sigma2_theta K + sigma2 I is singular") from exc
    hmat = _poly_basis(x, m_order)  # n x m
    ki_h = linalg.cho_solve(chol, hmat)
    ki_y = linalg.cho_solve(chol, y)
    beta_hat = np.linalg.solve(hmat.T @ ki_h, hmat.T @ ki_y)
    coefficients = linalg.cho_solve(chol, y - hmat @ beta_hat)
    return SplineFit(x, y, float(sigma2), float(sigma2_theta), beta_hat, khat, coefficients, m_order)


def spline_predict(fit: SplineFit, x_star):
    """Posterior-mean prediction h(x*)^T beta + s(x*)^T Khat^(-1)(y - H beta)."""
    xs = np.atleast_1d(np.asarray(x_star, dtype=float))
    s = fit.sigma2_theta * integrated_wiener_cov(fit.m_order - 1, xs[:, None], fit.x_train[None, :])
    vals = _poly_basis(xs, fit.m_order) @ fit.beta_hat + s @ fit.coefficients
    return float(vals[0]) if np.isscalar(x_star) or np.asarray(x_star).ndim == 0 else vals


def export_spline_curve(fit: SplineFit, path: str, num: int = 201) -> None:
    """CSV of (x, fitted, is_knot) on a grid joined with the knots."""
    grid = np.linspace(0.0, 1.0, num)
    xs = np.unique(np.concatenate([grid, fit.x_train]))
    fitted = spline_predict(fit, xs)
    knots = set(float(v) for v in fit.x_train)
    write_csv(path, ["x", "fitted", "is_knot"],
              ((xv, fv, int(float(xv) in knots)) for xv, fv in zip(xs, fitted)))
