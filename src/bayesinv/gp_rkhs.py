"""Covariance kernels, Nystrom eigen-approximation, GP regression, and
kernels induced by differential penalty operators via spectral inversion:
the rational spectrum of sum_m b_m int (theta^(m))^2 inverts exactly as the
stationary covariance of a linear SDE of order M (its state-space form).

Kernels are value objects with a broadcasting ``evaluate(x, x')`` callable
and the closed interval ``domain`` on which it is a covariance; GP fits and
predictions reject points outside it. Kernels with a known eigen-system under
the uniform measure on [0, 1] carry ``analytic_eigen(j) -> (lambda_j, psi_j)``
with 1-based index j.

The l-fold integrated Wiener process on [0, 1] (the prior behind every
smoothing spline and the cubic-spline kernel) has one closed-form covariance
(Wecker & Ansley 1983): with v = min(x, x'),

    k_l(x, x') = sum_{j=0..l} C(l, j) |x - x'|^(l-j) v^(l+j+1) / ((l+j+1) (l!)^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import linalg

from . import _checks as check

__all__ = [
    "CovarianceKernel",
    "GPRegressionFit",
    "ou_kernel",
    "squared_exponential_kernel",
    "brownian_motion_kernel",
    "spline_cubic_kernel",
    "integrated_wiener_cov",
    "spectral_numeric_kernel",
    "matrix_kernel",
    "gram",
    "nystrom_eigen",
    "rkhs_norm_truncated",
    "gp_fit",
    "gp_predict",
    "gp_predict_curve",
    "spectral_kernel",
    "penalty_quadratic_form",
]

CONDITION_WARN_THRESHOLD = 1e12


@dataclass(frozen=True)
class CovarianceKernel:
    evaluate: Callable[..., np.ndarray]
    analytic_eigen: Optional[Callable[[int], tuple]] = None
    domain: tuple[float, float] = (-math.inf, math.inf)


def ou_kernel(b: float) -> CovarianceKernel:
    """Ornstein-Uhlenbeck covariance (1/2b) exp(-b |x - x'|)."""
    b = check.positive("b", b)
    check.representable("b", b, lambda: 1.0 / (2.0 * b))  # the variance

    def evaluate(x, xp):
        return np.exp(-b * np.abs(np.asarray(x, dtype=float) - xp)) / (2.0 * b)

    return CovarianceKernel(evaluate)


def squared_exponential_kernel(b: float, d: int = 1) -> CovarianceKernel:
    """Squared-exponential covariance exp(-r^2/2b^2) / (2 pi b^2)^(d/2).

    For d > 1, inputs are points with d coordinates in the last axis.
    """
    b, d = check.positive("b", b), check.count("d", d, 1)
    norm, two_var = check.representable(
        "b", b, lambda: ((2.0 * math.pi * b * b) ** (-d / 2.0), 2.0 * b * b))

    def evaluate(x, xp):
        diff = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
        r2 = diff**2 if d == 1 else np.sum(diff**2, axis=-1)
        return norm * np.exp(-r2 / two_var)

    return CovarianceKernel(evaluate)


def brownian_motion_kernel() -> CovarianceKernel:
    """min(x, x') on [0, 1], with its closed-form eigen-system.

    Under the uniform measure, lambda_j = 1/((j - 1/2)^2 pi^2) and
    psi_j(x) = sqrt(2) sin((j - 1/2) pi x).
    """

    def evaluate(x, xp):
        return np.minimum(np.asarray(x, dtype=float), xp)

    def analytic_eigen(j: int):
        check.count("j", j, 1)
        freq = (j - 0.5) * math.pi
        return 1.0 / freq**2, lambda x: math.sqrt(2.0) * np.sin(freq * np.asarray(x))

    return CovarianceKernel(evaluate, analytic_eigen, (0.0, 1.0))


def integrated_wiener_cov(l: int, x, x_prime):
    """Covariance of the l-fold integrated Wiener process at (x, x').

    The integral of (x-u)_+^l (x'-u)_+^l / (l!)^2 over u in [0, 1], in the
    closed form of the module docstring. Broadcasts x against x_prime and
    returns a float for scalar input; l = 0 gives min(x, x').
    """
    check.count("l", l, 0)
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    if not (np.all((0.0 <= x) & (x <= 1.0)) and np.all((0.0 <= xp) & (xp <= 1.0))):
        raise ValueError("x and x_prime must lie in [0, 1]")
    v = np.minimum(x, xp)
    d = np.abs(x - xp)
    scale = math.factorial(l) ** 2
    out = sum(
        math.comb(l, j) * d ** (l - j) * v ** (l + j + 1) / ((l + j + 1) * scale)
        for j in range(l + 1)
    )
    return float(out) if out.ndim == 0 else out


def spline_cubic_kernel(variance: float = 1.0) -> CovarianceKernel:
    """Cubic-spline covariance variance * (|x-x'| v^2/2 + v^3/3), v = min.

    This is the once-integrated Wiener covariance (l = 1) scaled by variance.
    """
    variance = check.positive("variance", variance)

    def evaluate(x, xp):
        return variance * integrated_wiener_cov(1, x, xp)

    return CovarianceKernel(evaluate, domain=(0.0, 1.0))


def spectral_numeric_kernel(b) -> CovarianceKernel:
    """Stationary kernel k(x - x') of the penalty coefficients ``b``, exact at every lag."""
    b = _validate_spectrum_coeffs(b)

    def evaluate(x, xp):
        return spectral_kernel(b, np.asarray(x, dtype=float) - xp)

    return CovarianceKernel(evaluate)


def matrix_kernel(points, cov) -> CovarianceKernel:
    """Kernel backed by a covariance matrix on a fixed point set.

    Evaluation looks points up by value (binary search, 1e-9 tolerance), so
    ``points`` must be strictly increasing; used to restrict a grid prior
    covariance to a GP-regression kernel. The domain is the points' range,
    widened by that tolerance; a point inside it but off the set is an error
    that names the point.
    """
    points = check.finite("points", points)
    if points.ndim != 1 or points.size == 0 or np.any(np.diff(points) <= 0):
        raise ValueError("points must be a non-empty strictly increasing 1-d array")
    cov = check.finite("cov", cov, (points.size, points.size))

    def lookup(vals):
        vals = np.asarray(vals, dtype=float)
        idx = np.searchsorted(points, vals)
        idx = np.clip(idx, 0, points.size - 1)
        left = np.clip(idx - 1, 0, points.size - 1)
        idx = np.where(
            np.abs(points[left] - vals) < np.abs(points[idx] - vals), left, idx
        )
        off = np.abs(points[idx] - vals) > 1e-9
        if np.any(off):
            raise ValueError(f"matrix kernel evaluated at {float(vals[off].flat[0])!r}, "
                             "off its point set")
        return idx

    def evaluate(x, xp):
        xi, xj = np.broadcast_arrays(lookup(x), lookup(xp))
        out = cov[xi, xj]
        if np.ndim(x) == 0 and np.ndim(xp) == 0:
            return float(out)
        return out

    return CovarianceKernel(evaluate, domain=(float(points[0]) - 1e-9, float(points[-1]) + 1e-9))


def gram(kernel: CovarianceKernel, points) -> np.ndarray:
    """Gram matrix evaluate(points[i], points[j]) of points shaped (n,) or (n, d)."""
    points = check.finite("points", points)
    return np.asarray(kernel.evaluate(points[:, None], points[None, :]), dtype=float)


def nystrom_eigen(kernel: CovarianceKernel, n: int, count: int, seed: int):
    """Top eigenpairs of the Gram matrix on n uniform draws from [0, 1].

    Returns [(lambda_hat, u), ...] sorted by decreasing lambda_hat, where
    lambda_hat = lambda_j(Sigma_n) / n estimates the kernel eigenvalue and the
    eigenvectors u have unit Euclidean norm. Only those ``count`` pairs are
    computed (LAPACK ``dsyevr`` on an index subset).
    """
    check.count("count", count, 1, check.count("n", n, 1))
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, n)
    sigma_n = gram(kernel, points)
    try:
        vals, vecs = linalg.eigh(sigma_n, subset_by_index=[n - count, n - 1], driver="evr")
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("Gram matrix eigendecomposition failed") from exc
    return [(float(vals[j]) / n, vecs[:, j].copy()) for j in reversed(range(count))]


def rkhs_norm_truncated(theta_coeffs, eigenvalues) -> float:
    """Squared RKHS norm sum theta_i^2 / lambda_i of a truncated expansion."""
    lam = check.finite("eigenvalues", eigenvalues)
    theta = check.finite("theta_coeffs", theta_coeffs, lam.shape)
    if np.any(lam <= 0):
        raise ValueError("eigenvalues must be positive")
    return float(np.sum(theta**2 / lam))


def _regularized_gram(kernel: CovarianceKernel, x: np.ndarray, sigma: float) -> np.ndarray:
    kmat = gram(kernel, x)
    kmat.flat[:: x.size + 1] += sigma**2
    return kmat


@dataclass(frozen=True, eq=False)
class GPRegressionFit:
    x_train: np.ndarray
    y_train: np.ndarray
    kernel: CovarianceKernel
    sigma: float
    coefficients: np.ndarray
    _chol: np.ndarray = field(repr=False)

    def solve(self, v) -> np.ndarray:
        """(K + sigma^2 I)^(-1) v for ``v`` of leading length n, by the private Cholesky factor."""
        v = check.finite("v", v, (self.x_train.size, *np.shape(v)[1:]))
        return linalg.cho_solve((self._chol, True), v)

    @functools.cached_property
    def condition_estimate(self) -> float:
        """Exact 2-norm condition number of K + sigma^2 I; its SVD runs on first read only."""
        return float(np.linalg.cond(_regularized_gram(self.kernel, self.x_train, self.sigma)))

    @property
    def ill_conditioned(self) -> bool:
        return self.condition_estimate > CONDITION_WARN_THRESHOLD


def gp_fit(x, y, kernel: CovarianceKernel, sigma: float) -> GPRegressionFit:
    """Solve (K + sigma^2 I) c = y by Cholesky; the factor is kept on the fit."""
    sigma = check.positive("sigma", sigma)
    x = check.inside("x", check.finite("x", x), kernel.domain)
    y = check.finite("y", y, x.shape)
    if x.size == 0:
        raise ValueError("x must hold at least one training input")
    if x.ndim != 1:
        raise ValueError("x must be a 1-d array")
    if np.unique(x).size != x.size:
        raise ValueError("training inputs must be distinct")
    try:
        chol = linalg.cholesky(_regularized_gram(kernel, x, sigma), lower=True)
    except linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("K + sigma^2 I is numerically singular") from exc
    coef = linalg.cho_solve((chol, True), y)
    return GPRegressionFit(x, y, kernel, sigma, coef, chol)


def gp_predict(fit: GPRegressionFit, x_star: float):
    """Posterior mean and variance at a single point (``gp_predict_curve`` at one point)."""
    x_star = check.inside("x_star", check.finite("x_star", x_star, ()), fit.kernel.domain)
    means, variances = gp_predict_curve(fit, [x_star])
    return float(means[0]), float(variances[0])


def gp_predict_curve(fit: GPRegressionFit, xs) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior mean and variance over a grid of points.

    The mean is the representer form sum_i c_i K(x*, x_i). The variance is
    k(x*, x*) - |L^(-1) K(x_train, x*)|^2, one triangular solve on the Cholesky
    factor L, clamped to zero within a -1e-10 tolerance; lower is an error.
    """
    xs = check.inside("xs", check.finite("xs", xs), fit.kernel.domain)
    smat = np.asarray(fit.kernel.evaluate(xs[:, None], fit.x_train[None, :]), dtype=float)
    means = smat @ fit.coefficients
    w = linalg.solve_triangular(fit._chol, smat.T, lower=True)
    diag_prior = np.asarray(fit.kernel.evaluate(xs, xs), dtype=float)
    variances = diag_prior - np.einsum("ij,ij->j", w, w)
    if np.any(variances < -1e-10):
        raise ValueError("predictive variance below the clamping tolerance")
    return means, np.clip(variances, 0.0, None)


def _validate_spectrum_coeffs(b) -> np.ndarray:
    b = check.finite("b", b)
    if b.ndim != 1 or b.size == 0 or np.any(b < 0):
        raise ValueError("b must be a non-empty vector of non-negative coefficients")
    if b[0] <= 0:
        raise ValueError("b must have b_0 > 0 for an integrable spectrum")
    if b.size < 2 or np.all(b[1:] == 0):
        raise ValueError(
            "b needs derivative order M >= 1: with b_m = 0 for all m >= 1 "
            "the power spectrum does not decay and has no Fourier inverse"
        )
    return b


def spectral_kernel(b, tau_grid):
    """Fourier inverse of the power spectrum [sum_m b_m (4 pi^2 s^2)^m]^(-1), exactly.

    With P(u) = sum_m b_m u^m of degree M (trailing zeros trimmed), every root
    u_k lies off [0, inf), so lambda_k = -sqrt(-u_k) has Re lambda_k < 0 and
    Q(lambda) = prod_k (lambda - lambda_k) is real with P(w^2) = b_M |Q(iw)|^2.
    With F the companion matrix of Q and P_inf the solution of
    F P_inf + P_inf F^T + e_M e_M^T / b_M = 0, the kernel is
    k(tau) = [expm(F |tau|) P_inf]_00. Repeated roots (the Matern spectra)
    need no special case. Lags of any shape; a scalar lag returns a float.
    """
    b = np.trim_zeros(_validate_spectrum_coeffs(b), "b")
    order = b.size - 1
    lam = -np.sqrt(-np.roots(b[::-1]) + 0j)
    drift = np.eye(order, k=1)
    drift[-1] = -np.real(np.poly(lam))[:0:-1]
    noise = np.zeros((order, order))
    noise[-1, -1] = 1.0 / b[-1]
    p_inf = linalg.solve_continuous_lyapunov(drift, -noise)
    taus = np.abs(check.finite("tau_grid", tau_grid))
    vals = linalg.expm(taus[..., None, None] * drift)[..., 0, :] @ p_inf[:, 0]
    return vals if taus.ndim else float(vals)


def _difference_stencil(m: int) -> np.ndarray:
    """Minimal central finite-difference stencil of order m (unscaled)."""
    stencil = np.array([1.0])
    for _ in range(m // 2):
        stencil = np.convolve(stencil, [1.0, -2.0, 1.0])
    if m % 2:
        stencil = np.convolve(stencil, [-0.5, 0.0, 0.5])
    return stencil


def penalty_quadratic_form(b, theta) -> float:
    """theta^T (sum_m b_m D_m^T D_m) theta approximating the derivative penalty.

    theta holds the function on n grid nodes. D_m applies the order-m central
    difference scaled by n^m with grid weight 1/n folded in, so each term is a
    Riemann sum for int (theta^(m))^2.
    """
    b = check.finite("b", b)
    if b.ndim != 1 or b.size == 0 or np.any(b < 0):
        raise ValueError("b must be a non-empty vector of non-negative coefficients")
    order = b.size - 1
    theta = check.finite("theta", theta)
    n = theta.size
    if theta.ndim != 1 or n < 2 * order + 1:
        raise ValueError(f"theta needs a 1-d grid of n >= {2 * order + 1} nodes for order {order}, "
                         f"got shape {theta.shape}")
    total = b[0] * float(theta @ theta) / n
    for m in range(1, order + 1):
        if b[m] == 0.0:
            continue
        stencil = _difference_stencil(m)
        diffs = np.convolve(theta, stencil[::-1], mode="valid") * float(n) ** m
        total += b[m] * float(diffs @ diffs) / n
    return total
