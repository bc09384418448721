"""Closed-form Gaussian posterior for y = K theta + eps with finite-difference priors.

The posterior mean is the Tikhonov/MAP solution
(K^T K / sigma^2 + M^T M / tilde_sigma^2)^(-1) K^T y / sigma^2 and the inverse
Hessian of the regularized misfit is the posterior covariance.

H is formed as the dense product K^T K, divided by sigma^2 in place, with the
banded M^T M added on its diagonals from ``PrecisionRoot.gram_band``; no dense
M^T M is built. H = L L^T is factored once by Cholesky. H^(-1) comes from
LAPACK ``dpotri`` on L (n^3/3 + n^3/3 flops, against 2 n^3 for solving
against the identity), mirrored in place; the posterior standard deviations
are the column norms of L^(-1) from ``dtrtri``, so they need no H^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import lapack

from . import _checks as check
from .fd_priors import (
    NONSMOOTH,
    SMOOTH_INTERIOR,
    SMOOTH_SOFT_BOUNDARY,
    SMOOTH_ZERO_BOUNDARY,
    PrecisionRoot,
)
from .forward_ops import ForwardOperator

__all__ = [
    "GaussianPosterior",
    "fit",
    "tikhonov_objective",
    "posterior_covariance",
    "posterior_sd",
    "sample",
    "discretized_penalty_norm",
]


@dataclass(frozen=True, eq=False)
class GaussianPosterior:
    hessian: np.ndarray
    mean: np.ndarray
    sigma: float
    operator: ForwardOperator
    prior: PrecisionRoot
    chol_lower: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.mean.shape[0]


def fit(op: ForwardOperator, prior: PrecisionRoot, y: np.ndarray, sigma: float) -> GaussianPosterior:
    """Compute the Gaussian posterior via a symmetric positive-definite solve.

    Raises a linear-algebra error when the Hessian is singular, i.e. when the
    forward operator and the prior together leave some direction of theta
    unconstrained (possible with the rank-deficient smooth-interior prior and
    a rank-deficient operator).
    """
    sigma = check.positive("sigma", sigma)
    y = check.finite("y", y, (op.row_grid.n,))
    if prior.n != op.col_grid.n:
        raise ValueError(
            f"prior acts on {prior.n} nodes but operator has {op.col_grid.n} columns"
        )
    kmat = op.matrix
    hess = kmat.T @ kmat
    hess /= sigma**2
    n = prior.n
    idx = np.arange(n)
    for k, diag in prior.gram_band().items():
        diag = diag / prior.tilde_sigma**2
        hess[idx[: n - k], idx[k:]] += diag
        if k:
            hess[idx[k:], idx[: n - k]] += diag
    try:
        chol = linalg.cholesky(hess, lower=True)
    except linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "posterior Hessian is singular: the forward operator and the "
            f"'{prior.variant}' prior leave unconstrained directions"
        ) from exc
    rhs = kmat.T @ y / sigma**2
    mean = linalg.cho_solve((chol, True), rhs)
    return GaussianPosterior(hess, mean, sigma, op, prior, chol)


def tikhonov_objective(post: GaussianPosterior, theta: np.ndarray, y: np.ndarray) -> float:
    """Regularized misfit ||y - K theta||^2/(2 sigma^2) + ||M theta||^2/(2 ts^2)."""
    theta = check.finite("theta", theta, (post.n,))
    y = check.finite("y", y, (post.operator.row_grid.n,))
    resid = y - post.operator.matrix @ theta
    pen = post.prior.matrix @ theta
    ts = post.prior.tilde_sigma
    return float(resid @ resid / (2.0 * post.sigma**2) + pen @ pen / (2.0 * ts**2))


def posterior_covariance(post: GaussianPosterior) -> np.ndarray:
    """H^(-1) from the stored Cholesky factor by LAPACK ``dpotri``.

    ``dpotri`` fills the lower triangle; the factor's strict upper triangle
    is zero, so adding the transposed strict lower triangle in place mirrors
    it, with one n x n temporary.
    """
    cov, info = lapack.dpotri(post.chol_lower, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed to invert the posterior Hessian (info={info})")
    cov += np.tril(cov, -1).T
    return cov


def posterior_sd(post: GaussianPosterior) -> np.ndarray:
    """sqrt(diag(H^(-1))): the column norms of L^(-1), by LAPACK ``dtrtri``."""
    linv, info = lapack.dtrtri(post.chol_lower, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtri failed to invert the Cholesky factor (info={info})")
    return np.sqrt(np.einsum("ij,ij->j", linv, linv))


def sample(post: GaussianPosterior, k: int, seed: int) -> np.ndarray:
    """k independent posterior draws, one per row; deterministic per seed."""
    check.count("k", k, 1)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((post.n, k))
    # chol_lower is L with H = L L^T, so L^{-T} z has covariance H^{-1}
    draws = linalg.solve_triangular(post.chol_lower.T, z, lower=False)
    return post.mean[None, :] + draws.T


_SMOOTH_VARIANTS = (SMOOTH_INTERIOR, SMOOTH_ZERO_BOUNDARY, SMOOTH_SOFT_BOUNDARY)


def discretized_penalty_norm(prior: PrecisionRoot, theta: np.ndarray, order: str) -> float:
    """Riemann-sum approximation of the continuum penalty encoded by the prior.

    order="laplacian" (smooth variants): approximates int_0^1 (theta'')^2,
    using 4 n^3 ||M theta||^2 over the interior second-difference rows.
    order="gradient" (non-smooth variant): approximates int_0^1 (theta')^2,
    using 4 n ||M theta||^2 over the interior first-difference rows.

    The factors of 4 undo the 1/2 prefactor carried by the difference
    matrices; n^3 = n^4 (difference-to-derivative) * 1/n (grid weight).
    """
    n = prior.n
    r = prior.matrix @ check.finite("theta", theta, (n,))
    if order == "laplacian":
        if prior.variant not in _SMOOTH_VARIANTS:
            raise ValueError(f"laplacian order requires a smooth prior, got '{prior.variant}'")
        interior = r if prior.variant == SMOOTH_INTERIOR else r[1:-1]
        return float(4.0 * n**3 * interior @ interior)
    if order == "gradient":
        if prior.variant != NONSMOOTH:
            raise ValueError(f"gradient order requires the non-smooth prior, got '{prior.variant}'")
        interior = r[1:]
        return float(4.0 * n * interior @ interior)
    raise ValueError(f"order must be 'laplacian' or 'gradient', got '{order}'")
