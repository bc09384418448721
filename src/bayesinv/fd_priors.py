"""Finite-difference prior precision roots for a function sampled on a grid.

A precision root is a matrix M playing the role of Gamma^(-1/2): the prior on
theta is proportional to exp(-||M theta||^2 / (2 tilde_sigma^2)). Smooth
variants penalize second differences, the non-smooth variant penalizes first
differences, and jump variants down-weight selected increments. A smooth or
non-smooth root is a discretized derivative penalty, whose continuum value
``discretized_penalty_norm`` reads off the root's own variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _checks as check
from .csvio import _load_matrix, _save_matrix

__all__ = [
    "PrecisionRoot",
    "SMOOTH_INTERIOR",
    "SMOOTH_ZERO_BOUNDARY",
    "SMOOTH_SOFT_BOUNDARY",
    "NONSMOOTH",
    "SINGLE_JUMP",
    "MULTI_JUMP",
    "build_smooth_interior",
    "build_smooth_zero_boundary",
    "build_smooth_soft_boundary",
    "build_nonsmooth",
    "build_jump",
    "prior_log_density",
    "discretized_penalty_norm",
    "save_precision_root",
    "load_precision_root",
]

SMOOTH_INTERIOR = "smooth_interior"
SMOOTH_ZERO_BOUNDARY = "smooth_zero_boundary"
SMOOTH_SOFT_BOUNDARY = "smooth_soft_boundary"
NONSMOOTH = "nonsmooth"
SINGLE_JUMP = "single_jump"
MULTI_JUMP = "multi_jump"


@dataclass(frozen=True, eq=False)
class PrecisionRoot:
    matrix: np.ndarray
    variant: str
    tilde_sigma: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "matrix", check.finite("matrix", self.matrix))
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {self.matrix.shape}")
        check.positive("tilde_sigma", self.tilde_sigma)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def gram_band(self) -> dict[int, np.ndarray]:
        """The band of M^T M, as {k: diagonal k} for k >= 0; all else is zero.

        Diagonal -k equals diagonal k. Entry (i, i + k) is the sum over rows r
        of M[r, i] M[r, i + k], taken in increasing r, read from the shifted
        diagonals of M's band; no n x n product is formed. The band is read
        from M's nonzeros on every call, so an edit to M shows. Where each such
        sum is exact (every builder here except the jump entries and the
        soft-boundary corners) it equals ``M.T @ M`` bit for bit; otherwise
        it can differ from it by the rounding of a fused multiply-add.
        """
        rows, cols = self.matrix.shape
        # the offsets a (column minus row) of the diagonals holding a nonzero
        nz_rows, nz_cols = np.divmod(np.flatnonzero(self.matrix != 0), cols)
        offsets = np.unique(nz_cols - nz_rows).tolist()
        band = {}
        # r = i - a, so increasing r is decreasing a
        for a in reversed(offsets):
            lo = max(0, -a)
            diag_a = np.diagonal(self.matrix, a)
            for b in offsets:
                if b < a:
                    continue
                hi = min(rows, cols - b)
                if hi <= lo:
                    continue
                diag_b = np.diagonal(self.matrix, b)
                prod = diag_a[: hi - lo] * diag_b[lo - max(0, -b) : hi - max(0, -b)]
                out = band.setdefault(b - a, np.zeros(cols - (b - a)))
                out[lo + a : hi + a] += prod
        return band


def build_smooth_interior(n: int, tilde_sigma: float = 1.0) -> PrecisionRoot:
    """(n-2) x n second-difference rows (-1, 2, -1)/2 at interior nodes.

    Rank n-1 penalty: constants and linear trends are unpenalized.
    """
    check.count("n", n, 3)
    mat = np.zeros((n - 2, n))
    rows = np.arange(n - 2)
    mat[rows, rows] = -0.5
    mat[rows, rows + 1] = 1.0
    mat[rows, rows + 2] = -0.5
    return PrecisionRoot(mat, SMOOTH_INTERIOR, tilde_sigma)


def build_smooth_zero_boundary(n: int, tilde_sigma: float = 1.0) -> PrecisionRoot:
    """Square tridiagonal variant assuming theta vanishes outside the interval."""
    check.count("n", n, 2)
    mat = np.zeros((n, n))
    rows = np.arange(n)
    mat[rows, rows] = 1.0
    mat[rows[:-1], rows[1:]] = -0.5
    mat[rows[1:], rows[:-1]] = -0.5
    return PrecisionRoot(mat, SMOOTH_ZERO_BOUNDARY, tilde_sigma)


def build_smooth_soft_boundary(n: int, tilde_sigma: float = 1.0) -> PrecisionRoot:
    """Square variant with boundary rows (delta, 0, ...) and (..., 0, delta).

    delta^2 is set to 1 / e_mid^T (Lz^T Lz)^(-1) e_mid computed from the
    zero-boundary variant, so the boundary prior variance matches the
    mid-grid variance of the zero-boundary prior. With T = 2 Lz and
    k = n//2 + 1 (1-based), that variance is 4 ||T^(-1) e_k||^2 where
    T^(-1)[i, k] = min(i, k) (n + 1 - max(i, k)) / (n + 1), summed exactly.
    """
    check.count("n", n, 3)
    k = n // 2 + 1
    squares = lambda t: t * (t + 1) * (2 * t + 1)  # 6 * (1^2 + ... + t^2)
    mid_var = 4 * ((n + 1 - k) ** 2 * squares(k) + k**2 * squares(n - k)) / (6 * (n + 1) ** 2)
    delta = 1.0 / np.sqrt(mid_var)
    mat = build_smooth_zero_boundary(n).matrix
    mat[0, :] = 0.0
    mat[0, 0] = delta
    mat[-1, :] = 0.0
    mat[-1, -1] = delta
    return PrecisionRoot(mat, SMOOTH_SOFT_BOUNDARY, tilde_sigma, {"delta": float(delta)})


def build_nonsmooth(n: int, tilde_sigma: float = 1.0) -> PrecisionRoot:
    """Lower-bidiagonal first-difference rows, scaled by 1/2, theta(0) pinned."""
    check.count("n", n, 2)
    mat = np.zeros((n, n))
    rows = np.arange(n)
    mat[rows, rows] = 0.5
    mat[rows[1:], rows[:-1]] = -0.5
    return PrecisionRoot(mat, NONSMOOTH, tilde_sigma)


def build_jump(n: int, jumps, tilde_sigma: float = 1.0) -> PrecisionRoot:
    """Diagonal-rescaled first-difference prior, D L* with D = diag(entries).

    ``jumps`` is a list of (index, xi) pairs with 1-based increment index and
    diagonal entry xi in (0, 1). Entries are taken literally; pass xi^2 to
    follow the single-jump convention in which the increment noise has
    variance tilde_sigma^2 / xi^2.
    """
    base = build_nonsmooth(n, tilde_sigma)
    jumps = list(jumps)
    if not jumps:
        return base
    diag = np.ones(n)
    seen = set()
    for idx, xi in jumps:
        check.count("index in jumps", idx, 1, n)
        if idx in seen:
            raise ValueError(f"duplicate index {idx} in jumps")
        if not 0.0 < xi < 1.0:
            raise ValueError(f"entry in jumps must lie in (0, 1), got {xi}")
        seen.add(idx)
        diag[idx - 1] = xi
    variant = SINGLE_JUMP if len(jumps) == 1 else MULTI_JUMP
    mat = diag[:, None] * base.matrix
    return PrecisionRoot(mat, variant, tilde_sigma, {"jumps": [(int(i), float(x)) for i, x in jumps]})


def prior_log_density(root: PrecisionRoot, theta: np.ndarray) -> float:
    """Unnormalized log prior -||M theta||^2 / (2 tilde_sigma^2)."""
    r = root.matrix @ check.finite("theta", theta, (root.n,))
    return float(-(r @ r) / (2.0 * root.tilde_sigma**2))


# variant -> (its interior rows, the power of n in its penalty norm); the
# rows left out are boundary rows, which no derivative penalty holds
_PENALTY = {
    SMOOTH_INTERIOR: (slice(None), 3),
    SMOOTH_ZERO_BOUNDARY: (slice(1, -1), 3),
    SMOOTH_SOFT_BOUNDARY: (slice(1, -1), 3),
    NONSMOOTH: (slice(1, None), 1),
}


def discretized_penalty_norm(prior: PrecisionRoot, theta: np.ndarray) -> float:
    """Riemann-sum approximation of the continuum penalty the prior encodes.

    A smooth variant approximates int_0^1 (theta'')^2 by 4 n^3 ||M theta||^2
    over its interior second-difference rows; the non-smooth variant
    approximates int_0^1 (theta')^2 by 4 n ||M theta||^2 over its interior
    first-difference rows. Other variants hold no such penalty and raise.

    The factors of 4 undo the 1/2 prefactor carried by the difference
    matrices; n^3 = n^4 (difference-to-derivative) * 1/n (grid weight).
    """
    if prior.variant not in _PENALTY:
        raise ValueError(f"prior variant '{prior.variant}' is not a derivative penalty: "
                         f"need one of {', '.join(_PENALTY)}")
    rows, p = _PENALTY[prior.variant]
    n = prior.n
    interior = (prior.matrix @ check.finite("theta", theta, (n,)))[rows]
    return float(4.0 * n**p * interior @ interior)


def save_precision_root(root: PrecisionRoot, basepath: str) -> None:
    header = {
        "variant": root.variant,
        "tilde_sigma": root.tilde_sigma,
        "params": root.params,
    }
    _save_matrix(basepath, header, root.matrix)


def load_precision_root(basepath: str) -> PrecisionRoot:
    header, mat = _load_matrix(basepath)
    params = header["params"]
    if "jumps" in params:
        params["jumps"] = [(int(i), float(x)) for i, x in params["jumps"]]
    return PrecisionRoot(mat, header["variant"], header["tilde_sigma"], params)
