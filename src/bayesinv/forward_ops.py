"""Forward integral operators discretized to matrices on regular grids.

Each operator represents a linear map theta -> K theta, where the matrix entry
(i, j) is the kernel at (x_i, t_j) times the grid spacing h (left-endpoint
quadrature). Observations follow y = K theta + noise. Four kernels are
convolutions k(x - t): Gaussian blur, travel time, gravity and groundwater.
On one grid their entry (i, j) is k((i - j) h) h, so each is a Toeplitz
matrix built from its 2n - 1 lags. The diffraction kernel is not a function of
s - theta and is evaluated on the n^2 node pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from . import _checks as check
from .csvio import _load_matrix, _save_matrix

__all__ = [
    "Grid",
    "ForwardOperator",
    "make_gaussian_blur",
    "make_travel_time",
    "make_gravity",
    "make_diffraction",
    "make_groundwater",
    "make_identity",
    "apply",
    "simulate_data",
    "save_operator",
    "load_operator",
]


@dataclass(frozen=True)
class Grid:
    """Regular grid of n nodes a + i*(b-a)/n for i = 0..n-1."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        check.count("n", self.n, 2)
        check.finite("a", self.a)
        check.finite("b", self.b)
        if not self.b > self.a:
            raise ValueError(f"grid needs b > a, got [{self.a}, {self.b}]")
        check.representable("b", self.b, lambda: self.spacing)

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.a + np.arange(self.n) * self.spacing


@dataclass(frozen=True, eq=False)
class ForwardOperator:
    """Dense discretization of an integral kernel, plus grid metadata."""

    matrix: np.ndarray
    row_grid: Grid
    col_grid: Grid
    kernel_tag: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = (self.row_grid.n, self.col_grid.n)
        object.__setattr__(self, "matrix", check.finite("matrix", self.matrix, shape))


def _stationary(kernel, grid: Grid, tag: str, params: dict) -> ForwardOperator:
    """The operator of a kernel of the lag d = x - t alone: entry (i, j) is
    kernel((i - j) h) h, so the kernel runs once on the 2n - 1 lags and they
    fill the diagonals of a Toeplitz matrix."""
    n, h = grid.n, grid.spacing
    lags = kernel(np.arange(1 - n, n) * h) * h
    # first column: lags 0 .. n - 1; first row: lags 0 .. 1 - n
    return ForwardOperator(toeplitz(lags[n - 1:], lags[n - 1::-1]), grid, grid, tag, params)


def make_gaussian_blur(grid: Grid, psi: float) -> ForwardOperator:
    """Gaussian convolution kernel exp(-d^2 / 2 psi^2) / sqrt(2 pi psi^2)."""
    psi = check.positive("psi", psi)
    norm, two_var = check.representable(
        "psi", psi, lambda: (1.0 / math.sqrt(2.0 * math.pi * psi * psi), 2.0 * psi * psi))
    return _stationary(lambda d: norm * np.exp(-(d**2) / two_var), grid, "gaussian_blur",
                       {"psi": psi})


def make_travel_time(grid: Grid) -> ForwardOperator:
    """Heaviside kernel: cumulative travel time t(z) = integral_0^z s(u) du."""
    return _stationary(lambda d: (d >= 0).astype(float), grid, "travel_time", {})


def make_gravity(grid: Grid, h: float) -> ForwardOperator:
    """Vertical gravity anomaly kernel h / (d^2 + h^2)^(3/2) at height h."""
    h = check.positive("h", h)
    check.representable("h", h, lambda: h / (h * h) ** 1.5)  # the peak, at d = 0
    return _stationary(lambda d: h / (d**2 + h * h) ** 1.5, grid, "gravity", {"h": h})


def make_diffraction(grid: Grid) -> ForwardOperator:
    """Slit diffraction kernel on angles in [-pi/2, pi/2].

    (cos s + cos theta)^2 * sinc^2(pi (sin s + sin theta)), with sinc(0) = 1
    by continuity.
    """
    half_pi = math.pi / 2.0
    if grid.a < -half_pi - 1e-12 or grid.b > half_pi + 1e-12:
        raise ValueError("diffraction grid must lie within [-pi/2, pi/2]")
    s, th = grid.nodes[:, None], grid.nodes[None, :]
    amp = (np.cos(s) + np.cos(th)) ** 2
    z = math.pi * (np.sin(s) + np.sin(th))
    # np.sinc is sin(pi u)/(pi u); feed z/pi to get sin(z)/z
    mat = amp * np.sinc(z / math.pi) ** 2 * grid.spacing
    return ForwardOperator(mat, grid, grid, "diffraction", {})


def make_groundwater(grid: Grid, D: float, nu: float, x_obs: float, T: float) -> ForwardOperator:
    """Advection-diffusion source-history kernel f(x_obs, T_i - t_j).

    f(x, tau) = x / (2 sqrt(pi D tau^3)) * exp(-(x - nu tau)^2 / (4 D tau))
    for tau > 0 and 0 otherwise (causality). The exponent is negative, which
    is the decaying Green's function of the transport equation.
    """
    check.positive("D", D)
    check.positive("T", T)
    check.positive("x_obs", x_obs)
    check.finite("nu", nu)
    if abs(grid.a) > 1e-12 or abs(grid.b - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"grid must cover [0, T) = [0, {T}), got [{grid.a}, {grid.b})")
    h = grid.spacing  # the smallest positive lag, where the prefactor peaks
    check.representable("D", D, lambda: (4.0 * D * h, math.pi * D * h**3))
    check.representable("x_obs", x_obs, lambda: x_obs / (2.0 * math.sqrt(math.pi * D * h**3)))

    def kernel(tau):
        pos = tau > 0
        tau_safe = np.where(pos, tau, 1.0)
        # an exponent that over- or underflows still gives a finite factor
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            val = (
                x_obs
                / (2.0 * np.sqrt(math.pi * D * tau_safe**3))
                * np.exp(-((x_obs - nu * tau_safe) ** 2) / (4.0 * D * tau_safe))
            )
        return np.where(pos, val, 0.0)

    return _stationary(kernel, grid, "groundwater", {"D": D, "nu": nu, "x_obs": x_obs, "T": T})


def make_identity(grid: Grid) -> ForwardOperator:
    """Identity forward map (direct noisy observation of theta on the grid)."""
    return ForwardOperator(np.eye(grid.n), grid, grid, "identity", {})


def apply(op: ForwardOperator, theta: np.ndarray) -> np.ndarray:
    """Matrix-vector product K theta."""
    return op.matrix @ check.finite("theta", theta, (op.col_grid.n,))


def simulate_data(op: ForwardOperator, theta_true: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Draw y = K theta_true + eps with eps ~ N(0, sigma^2 I), fixed by seed."""
    theta_true = check.finite("theta_true", theta_true, (op.col_grid.n,))
    if sigma:  # sigma = 0 gives noise-free data
        sigma = check.positive("sigma", sigma)
    clean = op.matrix @ theta_true
    rng = np.random.default_rng(seed)
    return clean + sigma * rng.standard_normal(clean.shape[0])


def save_operator(op: ForwardOperator, basepath: str) -> None:
    """Write <basepath>.csv (dense matrix) and <basepath>.json (header)."""
    header = {
        "kernel_tag": op.kernel_tag,
        "params": op.params,
        "row_grid": {"a": op.row_grid.a, "b": op.row_grid.b, "n": op.row_grid.n},
        "col_grid": {"a": op.col_grid.a, "b": op.col_grid.b, "n": op.col_grid.n},
    }
    _save_matrix(basepath, header, op.matrix)


def load_operator(basepath: str) -> ForwardOperator:
    header, mat = _load_matrix(basepath)
    row_grid = Grid(**header["row_grid"])
    col_grid = Grid(**header["col_grid"])
    return ForwardOperator(mat, row_grid, col_grid, header["kernel_tag"], header["params"])
