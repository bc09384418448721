"""Covariance kernels, Nystrom eigen-approximation, GP regression, and
kernels induced by differential penalty operators via spectral inversion:
the rational spectrum of sum_m b_m int (theta^(m))^2 inverts exactly as the
stationary covariance of a linear SDE of order M (its state-space form).

Kernels are value objects with a broadcasting ``evaluate(x, x')`` callable
and the closed interval ``domain`` on which it is a covariance; GP fits and
predictions reject points outside it. Kernels with a known eigen-system under
the uniform measure on [0, 1] carry ``analytic_eigen(j) -> (lambda_j, psi_j)``
with 1-based index j.

Scalar Markov kernels (Ornstein-Uhlenbeck, Brownian motion at any variance) carry
``markov(a, b) -> (phi, q)``, for a <= b elementwise: f(b) | f(a) ~
N(phi f(a), q), with marginal variance ``evaluate(x, x)``. On sorted points
their precision is tridiagonal (Rue & Held 2005, GMRFs, ch. 2-3), so
``gp_fit``, ``GPRegressionFit.solve``, the predictions and ``nystrom_eigen``
run on that chain in O(n) and build no n x n matrix. Every other kernel takes
the dense Gram path.

The l-fold integrated Wiener process on [0, 1] (the prior behind every
smoothing spline; Brownian motion at l = 0, the cubic-spline kernel at l = 1)
has one closed-form covariance (Wecker & Ansley 1983) and one constructor,
``integrated_wiener_kernel(l, variance)``: with v = min(x, x'),

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
    "integrated_wiener_kernel",
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
    markov: Optional[Callable[..., tuple]] = None


def ou_kernel(b: float) -> CovarianceKernel:
    """Ornstein-Uhlenbeck covariance (1/2b) exp(-b |x - x'|).

    Markov with phi = exp(-b delta) and q = (1 - exp(-2 b delta)) / 2b, the
    latter by expm1: 1 - phi^2 loses digits at small delta.
    """
    b = check.positive("b", b)
    check.representable("b", b, lambda: 1.0 / (2.0 * b))  # the variance

    def evaluate(x, xp):
        return np.exp(-b * np.abs(np.asarray(x, dtype=float) - xp)) / (2.0 * b)

    def markov(lo, hi):
        delta = np.asarray(hi, dtype=float) - lo
        return np.exp(-b * delta), -np.expm1(-2.0 * b * delta) / (2.0 * b)

    return CovarianceKernel(evaluate, markov=markov)


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
    d = np.asarray(x - xp)
    np.abs(d, out=d)
    scale = math.factorial(l) ** 2
    # Horner in d over the positive terms, v's powers by multiplication, in place
    power = v * v if l else v
    for _ in range(l - 1):
        power *= v
    out = power * (1 / ((l + 1) * scale))  # int / int underflows to 0.0, 1.0 / int overflows
    for j in range(1, l + 1):
        power *= v
        out *= d
        out += power * (math.comb(l, j) / ((l + j + 1) * scale))
    return float(out) if out.ndim == 0 else out


def integrated_wiener_kernel(l: int, variance: float = 1.0) -> CovarianceKernel:
    """variance * k_l on [0, 1], by ``integrated_wiener_cov`` for l >= 1. At l = 0, Brownian
    motion: Markov from f(0) = 0 with phi = 1 and q = variance * delta, and eigenpairs
    lambda_j = variance / ((j - 1/2)^2 pi^2), psi_j(x) = sqrt(2) sin((j - 1/2) pi x)."""
    check.count("l", l, 0)
    variance = check.positive("variance", variance)
    if l:
        return CovarianceKernel(lambda x, xp: variance * integrated_wiener_cov(l, x, xp),
                                domain=(0.0, 1.0))

    def evaluate(x, xp):
        # v min(x, x') bit for bit; a Gram scales its n inputs, not its n^2 entries
        return np.minimum(np.multiply(variance, x), np.multiply(variance, xp))

    def analytic_eigen(j: int):
        check.count("j", j, 1)
        freq = (j - 0.5) * math.pi
        return variance / freq**2, lambda x: math.sqrt(2.0) * np.sin(freq * np.asarray(x))

    def markov(lo, hi):
        delta = np.asarray(hi, dtype=float) - lo
        return np.ones_like(delta), variance * delta

    return CovarianceKernel(evaluate, analytic_eigen, (0.0, 1.0), markov)


def brownian_motion_kernel() -> CovarianceKernel:
    """Brownian motion min(x, x') on [0, 1]: the integrated Wiener kernel at l = 0."""
    return integrated_wiener_kernel(0)


def spline_cubic_kernel(variance: float = 1.0) -> CovarianceKernel:
    """Cubic-spline covariance variance * (|x-x'| v^2/2 + v^3/3), v = min: l = 1."""
    return integrated_wiener_kernel(1, variance)


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


@dataclass(init=False, eq=False)
class _Chain:
    """A Markov kernel's prior at sorted distinct points ``x``: the marginal
    variances ``var`` and the steps (``phi``, ``q``) between neighbours. A
    leading point of zero variance (Brownian motion at 0) is pinned to 0,
    ``start = 1``, and the chain proper begins after it."""

    x: np.ndarray
    var: np.ndarray
    phi: np.ndarray
    q: np.ndarray
    start: int

    def __init__(self, kernel: CovarianceKernel, x: np.ndarray):
        self.x = x
        self.var = np.asarray(kernel.evaluate(x, x), dtype=float)
        self.phi, self.q = (np.asarray(a, dtype=float) for a in kernel.markov(x[:-1], x[1:]))
        self.start = int(self.var[0] == 0.0)

    def precision(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the tridiagonal prior precision of the chain proper."""
        s = self.start
        phi, q = self.phi[s:], self.q[s:]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            diag = np.append(1.0 / self.var[s:s + 1], 1.0 / q)
            diag[:-1] += phi * phi / q
            off = -phi / q
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise np.linalg.LinAlgError("the prior precision overflows: two points (nearly) coincide")
        return diag, off

    def kv(self, v: np.ndarray) -> np.ndarray:
        """K v in O(n), as two passes over Python floats: for j <= i,
        Cov(f_i, f_j) = var_j phi_j ... phi_(i-1)."""
        var, phi_in, vals = self.var.tolist(), [0.0, *self.phi.tolist()], v.tolist()
        lower, acc = [], 0.0
        for p, s, vi in zip(phi_in, var, vals):
            acc = p * acc + s * vi
            lower.append(acc)
        out, acc = [], 0.0
        for p, s, vi, lo in zip(phi_in[::-1], var[::-1], vals[::-1], lower[::-1]):
            out.append(lo + s * acc)
            acc = p * (vi + acc)
        return np.array(out[::-1])


@dataclass(init=False, eq=False)
class _ChainFactor:
    """Banded Cholesky factor of the tridiagonal posterior precision Q + I / sigma^2
    of a Markov kernel's values at the sorted training points.

    The pivots are D_j = t_j + phi_j^2 / q_j, with t_j the filtered information
    1 / (q_(j-1) + phi_(j-1)^2 / t_(j-1)) + 1 / sigma^2: sums of positive terms,
    where LAPACK's pivots A_jj - A_j(j-1)^2 / D_(j-1) cancel to ~eps / q of the
    closest pair. (K + sigma^2 I)^(-1) v = (v - E[f | data v]) / sigma^2,
    followed by one step of iterative refinement with the O(n) K v. The
    posterior variances and lag-1 covariances at the training points come from
    the Takahashi recurrence on the factor; a prediction conditions on its two
    neighbouring training points (the Markov bridge).
    """

    order: np.ndarray  # sorts x_train
    chain: _Chain
    noise: float
    lower: np.ndarray
    variances: np.ndarray  # posterior, at the sorted training points
    lag: np.ndarray  # posterior covariance of each sorted point with the next
    coefficients: np.ndarray
    mean: np.ndarray  # posterior, at the sorted training points

    def __init__(self, kernel: CovarianceKernel, x: np.ndarray, y: np.ndarray, sigma: float):
        self.order = np.argsort(x)
        self.chain = chain = _Chain(kernel, x[self.order])
        self.noise = sigma * sigma
        s = chain.start
        phi, q = chain.phi[s:], chain.q[s:]
        info, t = [], 1.0
        # the first point's step comes from the prior: phi = 0, q = its variance
        for p, step in zip([0.0, *phi.tolist()], [*chain.var[s:s + 1].tolist(), *q.tolist()]):
            t = 1.0 / (step + p * p / t) + 1.0 / self.noise
            info.append(t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pivots = np.array(info)
            pivots[:-1] += phi * phi / q
            unit = -phi / (q * pivots[:-1])  # L's subdiagonal with a unit diagonal
            root = np.sqrt(pivots)
            self.lower = np.vstack([root, np.append(unit * root[:-1], 0.0)[:root.size]])
        if not (np.isfinite(self.lower).all() and np.all(pivots > 0.0)):
            raise np.linalg.LinAlgError("the posterior precision is numerically singular")
        # Takahashi: Sigma_jj = 1/D_j + l_j^2 Sigma_(j+1)(j+1), Sigma_j(j+1) = -l_j Sigma_(j+1)(j+1)
        variances, lag, after = [0.0] * x.size, [0.0] * x.size, 0.0
        for j, d, l in zip(range(x.size - 1, s - 1, -1), pivots[::-1].tolist(),
                           [0.0, *unit[::-1].tolist()]):
            lag[j] = -l * after
            after = variances[j] = 1.0 / d + l * l * after
        self.variances, self.lag = np.array(variances), np.array(lag)
        self.coefficients = self.solve(y)
        self.mean = chain.kv(self.coefficients[self.order])

    def _unrefined_solve(self, v: np.ndarray) -> np.ndarray:
        """(v - E[f | data v]) / sigma^2 for columns v in sorted order."""
        mean = np.zeros_like(v)
        if self.lower.size:
            mean[self.chain.start:] = linalg.cho_solve_banded(
                (self.lower, True), v[self.chain.start:] / self.noise, check_finite=False)
        return (v - mean) / self.noise

    def solve(self, v: np.ndarray) -> np.ndarray:
        cols = v[self.order].reshape(v.shape[0], -1)
        coef = self._unrefined_solve(cols)
        prod = np.empty_like(coef)
        for j in range(cols.shape[1]):
            prod[:, j] = self.chain.kv(coef[:, j])
        coef = coef + self._unrefined_solve(cols - prod - self.noise * coef)
        out = np.empty_like(coef)
        out[self.order] = coef
        return out.reshape(v.shape)

    def predict(self, fit: GPRegressionFit, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The bridge f* | f_i, f_(i+1) for x_i <= x* < x_(i+1); past the left end
        the prior takes the left neighbour's place, past the right end nothing
        takes the right one's (phi = 0, q = 1)."""
        markov, x, last = fit.kernel.markov, self.chain.x, self.chain.x.size - 1
        i = np.searchsorted(x, xs, side="right") - 1
        left, right = i >= 0, i < last
        il, ir = np.maximum(i, 0), np.minimum(i + 1, last)
        phi1, q1 = markov(np.where(left, x[il], xs), xs)
        q1 = np.where(left, q1, np.asarray(fit.kernel.evaluate(xs, xs), dtype=float))
        phi2, q2 = markov(xs, np.where(right, x[ir], xs))
        phi2, q2 = np.where(right, phi2, 0.0), np.where(right, q2, 1.0)
        denom = q2 + phi2 * phi2 * q1
        a, b = phi1 * q2 / denom, phi2 * q1 / denom
        var_l = np.where(left, self.variances[il], 0.0)
        means = a * np.where(left, self.mean[il], 0.0) + b * self.mean[ir]
        variances = (q1 * q2 / denom + a * a * var_l
                     + 2.0 * a * b * np.where(left, self.lag[il], 0.0) + b * b * self.variances[ir])
        return means, variances


@dataclass(init=False, eq=False)
class _DenseFactor:
    """Cholesky factor of K + sigma^2 I, for kernels without a Markov hook."""

    lower: np.ndarray
    coefficients: np.ndarray

    def __init__(self, kernel: CovarianceKernel, x: np.ndarray, y: np.ndarray, sigma: float):
        try:
            self.lower = linalg.cholesky(_regularized_gram(kernel, x, sigma), lower=True)
        except linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("K + sigma^2 I is numerically singular") from exc
        self.coefficients = self.solve(y)

    def solve(self, v: np.ndarray) -> np.ndarray:
        return linalg.cho_solve((self.lower, True), v, check_finite=False)

    def predict(self, fit: GPRegressionFit, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Representer mean, and k(x*, x*) - |L^(-1) K(x_train, x*)|^2 by one triangular solve."""
        smat = check.finite("kernel", fit.kernel.evaluate(xs[:, None], fit.x_train[None, :]))
        w = linalg.solve_triangular(self.lower, smat.T, lower=True, check_finite=False)
        prior = np.asarray(fit.kernel.evaluate(xs, xs), dtype=float)
        return smat @ fit.coefficients, prior - np.einsum("ij,ij->j", w, w)


def nystrom_eigen(kernel: CovarianceKernel, n: int, count: int, seed: int):
    """Top eigenpairs of the Gram matrix on n uniform draws from [0, 1].

    Returns [(lambda_hat, u), ...] sorted by decreasing lambda_hat, where
    lambda_hat = lambda_j(Sigma_n) / n estimates the kernel eigenvalue and the
    eigenvectors u have unit Euclidean norm. Only those ``count`` pairs are
    computed: for a Markov kernel, the bottom eigenpairs of its tridiagonal
    precision on the sorted draws, each eigenvalue then taken as the Rayleigh
    quotient u^T K u with the O(n) K u (the tridiagonal eigenvalues alone are
    good to ~1e-8 only); otherwise LAPACK ``dsyevr`` on an index subset.
    """
    check.count("count", count, 1, check.count("n", n, 1))
    for s in np.ravel(seed):  # an integer or, as numpy allows, a list of them
        check.count("seed", s, 0)
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, n)
    if kernel.markov is None:
        try:
            vals, vecs = linalg.eigh(gram(kernel, points), subset_by_index=[n - count, n - 1],
                                     driver="evr")
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("Gram matrix eigendecomposition failed") from exc
        return [(float(vals[j]) / n, vecs[:, j].copy()) for j in reversed(range(count))]
    order = np.argsort(points)
    chain = _Chain(kernel, points[order])
    diag, off = chain.precision()
    # a pinned point adds the eigenvalue 0 with its unit vector
    top = min(count, diag.size)
    sorted_vecs = np.zeros((n, count))
    sorted_vecs[0, top:] = 1.0
    if top:
        _, sorted_vecs[chain.start:, :top] = linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, top - 1))
    vecs = np.empty_like(sorted_vecs)
    vecs[order] = sorted_vecs
    return [(float(u @ chain.kv(u)) / n, v) for u, v in zip(sorted_vecs.T, vecs.T.copy())]


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
    _chol: _ChainFactor | _DenseFactor = field(repr=False)

    def solve(self, v) -> np.ndarray:
        """(K + sigma^2 I)^(-1) v for ``v`` of leading length n, by the private Cholesky factor."""
        return self._chol.solve(check.finite("v", v, (self.x_train.size, *np.shape(v)[1:])))

    @functools.cached_property
    def condition_estimate(self) -> float:
        """Exact 2-norm condition number of K + sigma^2 I; its SVD runs on first read only."""
        return float(np.linalg.cond(_regularized_gram(self.kernel, self.x_train, self.sigma)))

    @property
    def ill_conditioned(self) -> bool:
        return self.condition_estimate > CONDITION_WARN_THRESHOLD


def gp_fit(x, y, kernel: CovarianceKernel, sigma: float) -> GPRegressionFit:
    """Solve (K + sigma^2 I) c = y; the factor is kept on the fit.

    A Markov kernel factors its O(n) tridiagonal posterior precision, any other
    kernel the dense K + sigma^2 I by Cholesky.
    """
    sigma = check.positive("sigma", sigma)
    x = check.inside("x", check.finite("x", x), kernel.domain)
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-d array, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("x must hold at least one training input")
    y = check.finite("y", y, x.shape)
    if np.unique(x).size != x.size:
        raise ValueError("training inputs must be distinct")
    factor = (_DenseFactor if kernel.markov is None else _ChainFactor)(kernel, x, y, sigma)
    return GPRegressionFit(x, y, kernel, sigma, factor.coefficients, factor)


def gp_predict(fit: GPRegressionFit, x_star: float):
    """Posterior mean and variance at a single point (``gp_predict_curve`` at one point)."""
    x_star = check.inside("x_star", check.finite("x_star", x_star, ()), fit.kernel.domain)
    means, variances = gp_predict_curve(fit, [x_star])
    return float(means[0]), float(variances[0])


def gp_predict_curve(fit: GPRegressionFit, xs) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior mean and variance over a grid of points.

    The mean equals the representer form sum_i c_i K(x*, x_i). The variance is
    clamped to zero within a -1e-10 tolerance; lower is an error.
    """
    xs = check.inside("xs", check.finite("xs", xs), fit.kernel.domain)
    if xs.ndim != 1:
        raise ValueError(f"xs must be a 1-d array, got shape {xs.shape}")
    means, variances = fit._chol.predict(fit, xs)
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
