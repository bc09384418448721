"""Inverse linear regression (statistical calibration).

Covers the classical and inverse point estimators of the unknown covariate,
the F-statistic confidence set, the Bayesian posterior of the covariate with
a caller-supplied prior, its shifted-scaled-t special case, the Poisson
leave-one-out posterior with closed-form moments, and the Monte Carlo
harnesses (coverage, estimator risk contrast, posterior non-contraction).
Each posterior is a ``Density1D``: an array log-density normalized on one
table of Gauss-Legendre panels whose mapped end panels reach the support's ends.

Distributional results assume the calibration design is standardized so that
sum x_i = 0 and sum x_i^2 = n; ``simulate_calibration`` produces such designs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import optimize
from scipy.special import fdtri, poch

from . import _checks as check

__all__ = [
    "CalibrationData",
    "CalibrationEstimates",
    "ConfidenceSet",
    "Density1D",
    "make_calibration_data",
    "fit_calibration",
    "confidence_set",
    "flat_prior",
    "hoadley_informative_prior",
    "hoadley_posterior",
    "hoadley_t_posterior",
    "poisson_xval_posterior",
    "inconsistency_experiment",
    "InconsistencyRow",
    "simulate_calibration",
    "coverage_experiment",
    "CoverageResult",
    "estimator_risk_experiment",
    "RiskResult",
]


# ---------------------------------------------------------------------------
# data and point estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CalibrationData:
    x: np.ndarray
    y: np.ndarray
    y_new: np.ndarray
    x_shift: float = 0.0  # mean removed from the raw covariates

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.y_new.shape[0]


def make_calibration_data(x, y, y_new) -> CalibrationData:
    """Bundle training pairs and new responses; centers x to sum zero."""
    x = check.finite("x", x)
    y = check.finite("y", y, x.shape)
    y_new = np.atleast_1d(check.finite("y_new", y_new))
    if x.ndim != 1 or x.shape[0] < 3:
        raise ValueError(f"x must be 1-d with n >= 3 training pairs, got shape {x.shape}")
    if y_new.ndim != 1 or y_new.shape[0] < 1:
        raise ValueError("y_new must be a 1-d array of at least one new response")
    shift = float(x.mean())
    return CalibrationData(x - shift, y, y_new, shift)


@dataclass(frozen=True)
class CalibrationEstimates:
    alpha_hat: float
    beta_hat: float
    gamma_hat: float
    delta_hat: float
    x_classical: float
    x_inverse: float
    sigma2_1: float
    sigma2_2: Optional[float]
    sigma2_pooled: float
    f_stat: float
    n: int
    m: int


def fit_calibration(data: CalibrationData) -> CalibrationEstimates:
    """Least-squares estimates in both regression directions plus F statistic.

    sigma2_2 (spread of the new responses) exists only for m >= 2; with m = 1
    the pooled variance carries the training residuals alone.
    """
    return _rows(_fit_rows(data.x, data.y[None], data.y_new[None]))[0]


def _fit_rows(x: np.ndarray, y: np.ndarray, y_new: np.ndarray) -> CalibrationEstimates:
    """``fit_calibration`` of the datasets (x, y[k], y_new[k]), its float fields
    holding arrays over k; any degenerate dataset raises."""
    n, m = x.size, y_new.shape[1]
    xb, yb = x.mean(), y.mean(axis=1)
    dx, dy = x - xb, y - yb[:, None]
    sxx = float(np.sum(dx**2))
    syy = np.sum(dy**2, axis=1)
    sxy = np.sum(dx * dy, axis=1)
    if sxx <= 0:
        raise ValueError("degenerate data: zero variance in the covariates x")
    if np.any(syy <= 0):
        raise ValueError("degenerate data: zero variance in the responses y")
    beta_hat = sxy / sxx
    alpha_hat = yb - beta_hat * xb
    delta_hat = sxy / syy
    gamma_hat = xb - delta_hat * yb
    if np.any(beta_hat == 0):
        raise ValueError("degenerate data: zero estimated slope")
    ynb = y_new.mean(axis=1)
    x_classical = (ynb - alpha_hat) / beta_hat
    x_inverse = gamma_hat + delta_hat * ynb
    sigma2_1 = np.sum((y - alpha_hat[:, None] - beta_hat[:, None] * x) ** 2, axis=1) / (n - 2)
    if m >= 2:
        sigma2_2 = np.sum((y_new - ynb[:, None]) ** 2, axis=1) / (m - 1)
        pooled = ((n - 2) * sigma2_1 + (m - 1) * sigma2_2) / (n - 2 + m - 1)
    else:
        sigma2_2 = None
        pooled = sigma2_1
    with np.errstate(divide="ignore"):  # zero pooled variance: F = inf
        f_stat = n * beta_hat**2 / pooled
    return CalibrationEstimates(
        alpha_hat, beta_hat, gamma_hat, delta_hat, x_classical, x_inverse,
        sigma2_1, sigma2_2, pooled, f_stat, n, m,
    )


def _rows(batch: CalibrationEstimates) -> list[CalibrationEstimates]:
    """The datasets of a ``_fit_rows`` batch, each with float fields."""
    *fields, n, m = vars(batch).values()
    cols = [itertools.repeat(None) if v is None else v.tolist() for v in fields]
    return [CalibrationEstimates(*row, n, m) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# confidence set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfidenceSet:
    kind: str  # "interval" | "complement" | "whole_line"
    lower: Optional[float]
    upper: Optional[float]
    alpha: float

    @property
    def uninformative(self) -> bool:
        return self.kind == "whole_line"

    def contains(self, x: float) -> bool:
        if self.kind == "whole_line":
            return True
        if self.kind == "interval":
            return self.lower <= x <= self.upper
        return x <= self.lower or x >= self.upper


def confidence_set(est: CalibrationEstimates, alpha: float) -> ConfidenceSet:
    """Invert the calibration t test into one of three set shapes.

    Large F gives a bounded interval, moderate F the complement of an
    interval, and small F the whole real line (flagged uninformative).
    """
    kind, lower, upper = (v.item() for v in _invert(est, alpha))
    if kind == "whole_line":
        return ConfidenceSet(kind, None, None, alpha)
    return ConfidenceSet(kind, lower, upper, alpha)


def _invert(est: CalibrationEstimates, alpha: float) -> tuple:
    """``confidence_set`` as arrays (kind, lower, upper) over the datasets of
    ``est``, whose fields may hold floats or ``_fit_rows`` arrays; a whole
    line's bounds are NaN."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if est.m != 1:
        raise ValueError(f"the confidence set is defined for m = 1, got m = {est.m}")
    n = est.n
    f = np.asarray(est.f_stat, dtype=float)
    xc = np.asarray(est.x_classical, dtype=float)
    fcrit = float(fdtri(1, n - 2, 1.0 - alpha))
    # every branch is evaluated on every dataset; the rows a branch does not
    # select may divide by zero or meet inf - inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = fcrit * ((n + 1) * (f - fcrit) + f * xc**2)
        half = np.sqrt(disc) / (f - fcrit)
        center = f * xc / (f - fcrit)
        root = np.sqrt(np.maximum(disc, 0.0))
        a = (f * xc - root) / (f - fcrit)
        b = (f * xc + root) / (f - fcrit)
        # the first branch that holds gives the shape; an infinite F (perfect
        # fit) collapses the set onto the classical estimate
        which = np.argmax([np.isinf(f), f == fcrit, f > fcrit,
                           f >= (n + 1) / (n + 1 + xc**2) * fcrit, np.full(f.shape, True)], axis=0)
        kind = np.array(["interval", "whole_line", "interval", "complement", "whole_line"])[which]
        lower = np.choose(which, [xc, math.nan, center - half, np.minimum(a, b), math.nan])
        upper = np.choose(which, [xc, math.nan, center + half, np.maximum(a, b), math.nan])
    return kind, lower, upper


def _covers(kind, lower, upper, x) -> np.ndarray:
    """``ConfidenceSet.contains(x)`` over the arrays of ``_invert``."""
    return np.select([kind == "interval", kind == "complement"],
                     [(lower <= x) & (x <= upper), (x <= lower) | (x >= upper)], True)


# ---------------------------------------------------------------------------
# one-dimensional unnormalized densities
# ---------------------------------------------------------------------------

_TAIL_REL = 1e-10
_MAX_EXPANSIONS = 60
_SHELL_CALLS = 8  # shells evaluated per log_density call
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _panels(a, b):
    """20-node Gauss-Legendre nodes and weights from each a to b, along a new last axis."""
    a, half = np.expand_dims(a, -1), 0.5 * (np.expand_dims(b, -1) - np.expand_dims(a, -1))
    return a + half * (1.0 + _GL_NODES), np.abs(half) * _GL_WEIGHTS


class Density1D:
    """Unnormalized log-density normalized on one table of Gauss-Legendre panels.

    ``log_density`` maps an array of points to an array (a scalar broadcasts;
    non-finite is zero density). Panels double in width outward from the mode
    until a shell of them holds under 1e-10 of the mass: ``window`` is what
    they cover. The rest of each side, to a finite end or to infinity, is one
    panel in u <= 1 with x = edge +- L (1/u - 1), L the edge's distance from
    the mode, so mass and moments cover the support. Non-integrable ones raise.
    """

    def __init__(
        self,
        log_density: Callable[[np.ndarray], np.ndarray],
        support: tuple,
        center_hint: float = 0.0,
        exact_mean: Optional[float] = None,
        exact_variance: Optional[float] = None,
        exact_log_normalizer: Optional[float] = None,
    ):
        self.log_density = log_density
        self.support = (float(support[0]), float(support[1]))
        if not self.support[0] < self.support[1]:
            raise ValueError(f"support must be an interval (lo, hi) with lo < hi, got {support}")
        check.finite("center_hint", center_hint)
        self.exact_mean = exact_mean
        self.exact_variance = exact_variance
        self.exact_log_normalizer = exact_log_normalizer
        self._normalize(float(center_hint))

    # -- normalization machinery ------------------------------------------

    def _log(self, xs: np.ndarray, live: np.ndarray) -> np.ndarray:
        """log_density where ``live``; -inf elsewhere and where it is not finite."""
        out = np.full(xs.shape, -np.inf)
        out[live] = self.log_density(xs[live])
        return np.where(np.isfinite(out), out, -np.inf)

    def _scan_peak(self, lo: float, hi: float) -> tuple:
        """(point, log-density, rescans): the best of 65 points on [lo, hi], rescanned
        between its neighbours, up to 3 times, while both lie 2 or more below it."""
        for level in range(4):
            xs = np.linspace(lo, hi, 65)
            vals = self._log(xs, np.full(65, True))
            k = int(np.argmax(vals))
            if not 0 < k < 64 or max(vals[k - 1], vals[k + 1]) > vals[k] - 2.0 or level == 3:
                return float(xs[k]), float(vals[k]), level
            lo, hi = xs[k - 1], xs[k + 1]

    def _normalize(self, center: float) -> None:
        lo, hi = self.support
        center = min(max(center, lo), hi)
        for _attempt in range(3):
            width = 1.0 + 0.5 * abs(center)
            left = max(lo, center - width)
            right = min(hi, center + width)
            x_best, self._shift, level = self._scan_peak(left + 1e-12 * (right - left), right)
            # -inf everywhere gives no direction to the mode: widen the scan
            # about the hint, and restart centred on the first finite point
            widenings = 0
            while (self._shift == -math.inf and widenings < _MAX_EXPANSIONS
                   and (lo < left or right < hi)):
                widenings += 1
                left = max(lo, center - 2.0 * (center - left))
                right = min(hi, center + 2.0 * (right - center))
                x_best, self._shift, level = self._scan_peak(left + 1e-12 * (right - left), right)
            if self._shift == -math.inf:
                raise ValueError(
                    "normalization failed: could not locate the mode (the log-density is "
                    f"-inf at every point scanned on [{left:g}, {right:g}]); pass a "
                    "center_hint near the mode"
                )
            center = x_best
            if widenings:
                continue
            # panel j of each side spans dist[j]..dist[j + 1] from the mode; the first
            # ``inner`` reach the first window, each later pair is a doubling shell
            inner = 5 * level + 6  # the innermost is as wide as the last scan's spacing
            dist = np.r_[0.0, width * 2.0 ** np.arange(1 - inner, _MAX_EXPANSIONS + 1)]
            ends = np.stack([np.maximum(center - dist, lo), np.minimum(center + dist, hi)])
            xs, ws = _panels(ends[:, :-1], ends[:, 1:])
            ld, start = np.full(xs.shape, -np.inf), 0
            for end in range(inner + _SHELL_CALLS, dist.size + _SHELL_CALLS, _SHELL_CALLS):
                ld[:, start:end] = self._log(xs[:, start:end], ws[:, start:end] > 0)
                start = end
                # capped, so that a far higher peak still lets the shells stop
                shell = (ws * np.exp(np.minimum(ld - self._shift, 700.0))).sum(axis=(0, 2))
                mass = np.cumsum(shell)
                last = ((ends[0, 1:] <= lo) & (ends[1, 1:] >= hi)) | (shell < _TAIL_REL * mass)
                if last[inner:end].any():
                    stop = inner + 1 + int(np.argmax(last[inner:end]))  # panels kept per side
                    break
            else:
                raise ValueError(
                    "normalization failed: tail mass does not vanish "
                    "(the density is not integrable on its support)"
                )
            xs, ws, ld = xs[:, :stop], ws[:, :stop], ld[:, :stop]
            # a much larger peak inside the window means the hint was badly
            # off: recenter there and redo the normalization
            if ld.max() > self._shift + 30.0:
                center = float(xs.flat[np.argmax(ld)])
                continue
            if mass[stop - 1] <= 0:
                raise ValueError("normalization failed: density is zero on its support")
            self.window = (float(ends[0, stop]), float(ends[1, stop]))
            wf = ws * np.exp(ld - self._shift)
            pieces = [(xs.ravel(), wf.ravel())]
            for edge, bound, side in zip(ends[:, stop], (lo, hi), (-1.0, 1.0)):
                scale, gap = side * (edge - center), side * (bound - edge)
                u, uw = _panels(scale / (scale + gap) if gap else 1.0, 1.0)  # 0 if gap is inf
                tx, tw = edge + side * scale * (1.0 / u - 1.0), uw * scale / u**2
                pieces.append((tx, tw * np.exp(self._log(tx, tw > 0) - self._shift)))
            self._x, self._wf = (np.concatenate(column) for column in zip(*pieces))
            self._mass = float(self._wf.sum())
            # ascending panel edges across the window, and the mass left of each
            self._edges = np.concatenate([ends[0, stop:0:-1], ends[1, :stop + 1]])
            self._cum = np.cumsum(np.r_[pieces[1][1].sum(), wf[0, ::-1].sum(1), wf[1].sum(1)])
            return
        raise ValueError("normalization failed: could not stabilize the scaling shift")

    @property
    def log_normalizer(self) -> float:
        return math.log(self._mass) + self._shift

    # -- normalized quantities --------------------------------------------

    def pdf(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.support
        out = np.exp(self._log(xs, (lo <= xs) & (xs <= hi)) - self._shift) / self._mass
        return float(out[0]) if np.ndim(x) == 0 else out

    def cdf(self, x: float) -> float:
        left, right = self.window
        if x <= left:
            return 0.0
        if x >= right:
            return 1.0
        check.finite("x", x)  # only NaN gets here
        i = int(np.searchsorted(self._edges, x, side="right")) - 1
        nodes, weights = _panels(self._edges[i], x)
        part = weights @ np.exp(self._log(nodes, weights > 0) - self._shift)
        return min(max(float((self._cum[i] + part) / self._mass), 0.0), 1.0)

    def mean(self) -> float:
        return float(self._wf @ self._x) / self._mass

    def variance(self) -> float:
        return float(self._wf @ (self._x - self.mean()) ** 2) / self._mass

    def sd(self) -> float:
        return math.sqrt(self.variance())

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile level p must lie in (0, 1), got {p}")
        # the root of cdf - p in the panel whose cumulative mass brackets p; cdf
        # jumps at the window's edges, so a level in a tail gives that edge
        i = int(np.clip(np.searchsorted(self._cum / self._mass, p), 1, self._cum.size - 1))
        a, b = self._edges[i - 1:i + 1]
        return float(optimize.brentq(lambda t: self.cdf(t) - p, a, b, xtol=1e-12))


# ---------------------------------------------------------------------------
# Bayesian calibration posteriors
# ---------------------------------------------------------------------------

def flat_prior(x: float) -> float:
    return 1.0


def hoadley_informative_prior(n: int) -> Callable[[float], float]:
    """t prior with n-3 degrees of freedom and scale sqrt((n+1)/(n-3)).

    This is the prior under which the posterior mean of the unknown covariate
    is the inverse estimator (m = 1).
    """
    check.count("n", n, 4)
    scale = math.sqrt((n + 1) / (n - 3))
    df = np.float64(n - 3)
    # scipy.stats.t's log-density with the same numpy ufuncs in the same
    # order, so each value equals stats.t.pdf(x / scale, df) / scale exactly
    # (math.exp and math.log1p round differently in a few percent of values)
    const = np.log(poch(0.5 * df, 0.5)) - 0.5 * (np.log(df) + np.log(np.pi))
    power = (df + 1) / 2

    def prior(x: float) -> float:
        z = np.float64(x / scale)
        return float(np.exp(const - power * np.log1p(z * z / df)) / scale)

    return prior


def _hoadley_log_likelihood(est: CalibrationEstimates):
    n, m = est.n, est.m
    f = est.f_stat
    if not math.isfinite(f):
        raise ValueError("degenerate data: infinite F statistic (zero residual variance)")
    r = f / (f + m + n - 3)
    const = 1.0 + n / m
    rxc = r * est.x_classical
    coef = f / (m + n - 3) + 1.0

    def log_lik(x):
        return 0.5 * (m + n - 3) * np.log(const + x * x) - 0.5 * (m + n - 2) * np.log(
            const + r * est.x_classical**2 + coef * (x - rxc) ** 2
        )

    return log_lik, rxc


def hoadley_posterior(data: CalibrationData, prior: Callable[[float], float]) -> Density1D:
    """Posterior density of the unknown covariate under sigma = tau pooling.

    The likelihood factor L(x) behaves like 1/|x| in the tails, so the prior
    must decay for the posterior to normalize; a flat prior raises the
    normalization failure.
    """
    est = fit_calibration(data)
    log_lik, center = _hoadley_log_likelihood(est)

    def log_density(x):
        p = np.reshape([prior(t) for t in np.ravel(x).tolist()], np.shape(x))  # scalar prior
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(p) + log_lik(x)

    return Density1D(log_density, (-math.inf, math.inf), center_hint=center)


def hoadley_t_posterior(est: CalibrationEstimates, n: int):
    """Closed-form posterior under the informative prior, for m = 1.

    Returns (location, scale, df): the posterior of x is
    location + scale * t_df. ``n`` must equal ``est.n``.
    """
    if n != est.n:
        raise ValueError(f"sample size n = {n} does not match the estimates' n = {est.n}")
    if est.m != 1:
        raise ValueError(f"the t-form posterior requires m = 1, got m = {est.m}")
    f = est.f_stat
    if f == 0:
        raise ValueError("degenerate data: F = 0 gives no information about x")
    if not math.isfinite(f):
        raise ValueError("degenerate data: infinite F statistic")
    r = f / (f + n - 2)
    location = est.x_inverse
    scale = math.sqrt((n + 1 + est.x_inverse**2 / r) / (f + n - 2))
    return location, scale, n - 2


# ---------------------------------------------------------------------------
# Poisson leave-one-out posterior
# ---------------------------------------------------------------------------

def poisson_xval_posterior(x_all, y_all, held_out: int) -> Density1D:
    """Leave-one-out posterior of a Poisson covariate, with exact moments.

    Density x^y_i / (1 + x/s)^(N+1) on (0, inf) with s the sum of the kept
    covariates and N the total count; it is evaluated through log1p(x/s),
    which keeps full relative precision when N and s are large. Normalizer
    and moments follow from int_0^inf x^a (1 + x/s)^(-c) dx = s^(a+1) B(a+1, c-a-1).
    """
    x_all = check.finite("x_all", x_all)
    y_all = check.finite("y_all", y_all, x_all.shape)
    if x_all.ndim != 1 or np.any(x_all <= 0):
        raise ValueError("x_all must be a 1-d array of positive covariates")
    if np.any(y_all < 0) or not np.all(np.equal(np.mod(y_all, 1), 0)):
        raise ValueError("y_all must hold counts: non-negative integers")
    check.count("held_out", held_out, 0, x_all.shape[0] - 1)
    s = float(x_all.sum() - x_all[held_out])
    n_total = float(np.sum(y_all))
    y_i = float(y_all[held_out])
    if n_total - y_i <= 1:
        raise ValueError(
            "y_all gives a posterior that is not normalizable: need "
            f"sum(y_all) - y_all[held_out] > 1, got {n_total - y_i}"
        )
    a = y_i
    c = n_total + 1.0

    def log_density(x):
        with np.errstate(divide="ignore", invalid="ignore"):  # x <= 0: zero density
            return a * np.log(x) - c * np.log1p(x / s)

    exact_mean = s * (y_i + 1.0) / (n_total - y_i - 1.0)
    if n_total - y_i > 2:
        ex2 = s * s * (y_i + 1.0) * (y_i + 2.0) / ((n_total - y_i - 1.0) * (n_total - y_i - 2.0))
        exact_variance = ex2 - exact_mean**2
    else:
        exact_variance = math.inf
    # log B(a + 1, q) with q = c - a - 1, as lgamma(a + 1) - sum_k<=a log(q + k): a is
    # a count, and lgamma(q) - lgamma(q + a + 1) would cancel ~q log q digits
    log_beta = math.lgamma(a + 1.0) - float(np.sum(np.log(c - a - 1.0 + np.arange(a + 1.0))))
    exact_log_norm = (a + 1.0) * math.log(s) + log_beta
    return Density1D(
        log_density,
        (0.0, math.inf),
        center_hint=exact_mean,
        exact_mean=exact_mean,
        exact_variance=exact_variance,
        exact_log_normalizer=exact_log_norm,
    )


@dataclass(frozen=True)
class InconsistencyRow:
    n: int
    posterior_sd: float
    x_true: float
    posterior: Density1D


def inconsistency_experiment(theta_true: float, n_values: Sequence[int], seed: int):
    """Posterior spread of the held-out covariate for growing sample sizes.

    For each n, draws x_i ~ U(0.5, 1.5) and y_i ~ Poisson(theta x_i) from the
    stream (seed, n), holds out a fixed index, and records the closed-form
    posterior sd. The sd does not shrink with n: the posterior of a covariate
    never concentrates when the responses stay noisy. An n whose counts leave
    the variance infinite is a ValueError.
    """
    theta_true = check.positive("theta_true", theta_true)
    seed = check.count("seed", seed, 0)
    n_values = [check.count("n_values", n, 3) for n in n_values]
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be non-empty and strictly increasing")
    rows = []
    for n in n_values:
        rng = np.random.default_rng([seed, n])
        xs = rng.uniform(0.5, 1.5, n)
        ys = rng.poisson(theta_true * xs)
        held = min(9, n - 1)
        rest = int(ys.sum() - ys[held])
        if rest <= 2:
            raise ValueError(f"n_values gives n = {n} a posterior with no finite variance: "
                             f"sum(y) - y[held] = {rest}, needs > 2")
        posterior = poisson_xval_posterior(xs, ys, held)
        sd = math.sqrt(posterior.exact_variance)
        rows.append(InconsistencyRow(n, sd, float(xs[held]), posterior))
    return rows


# ---------------------------------------------------------------------------
# Monte Carlo harnesses
# ---------------------------------------------------------------------------

def standardized_design(n: int) -> np.ndarray:
    """Equally spaced covariates scaled to sum x = 0 and sum x^2 = n."""
    check.count("n", n, 3)  # the fit on the design needs n >= 3
    x = np.linspace(-1.0, 1.0, n)
    x = x - x.mean()
    return x * math.sqrt(n / float(np.sum(x * x)))


def simulate_calibration(
    n: int,
    m: int,
    alpha_true: float,
    beta_true: float,
    sigma: float,
    x_true: float,
    seed,
) -> CalibrationData:
    """Draw a calibration dataset on the standardized design; the stream
    default_rng(seed) gives the n training noises, then the m new ones."""
    x = standardized_design(n)
    check.count("m", m, 1)
    z = np.random.default_rng(seed).standard_normal((1, n + m))
    y, y_new = _draw(x, alpha_true, beta_true, sigma, x_true, z)
    return make_calibration_data(x, y[0], y_new[0])


def _draw(x, alpha_true, beta_true, sigma, x_true, z):
    """Responses y (k, n) on the design x and y_new (k, m) at x_true from the
    standard normals z (k, n + m): dataset k takes the training noises from the
    first n of row k and the new-response noises from the rest."""
    for name, v in (("alpha_true", alpha_true), ("beta_true", beta_true), ("x_true", x_true)):
        check.finite(name, v)
    if sigma:  # sigma = 0 gives noise-free data
        check.positive("sigma", sigma)
    n = x.size
    return (alpha_true + beta_true * x + sigma * z[:, :n],
            alpha_true + beta_true * x_true + sigma * z[:, n:])


_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _replicate_normals(seed: int, n_reps: int, size: int) -> np.ndarray:
    """Row r is default_rng([seed, r]).standard_normal(size), bit for bit.

    numpy's SeedSequence hashing of the entropy words (seed's little-endian
    uint32 words, then r) runs in uint32 arithmetic on all replicates at once;
    its hash constants advance alike for every row. PCG64's setseq seeding
    then runs on Python ints, and one reused generator draws each row from the
    state it is handed. A test against default_rng catches numpy changing this.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(n_reps, w, np.uint32) for w in words] + [np.arange(n_reps, dtype=np.uint32)]
    const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        out = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return out ^ out >> np.uint32(16)

    # mix_entropy on a pool of four words, then generate_state(4, uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n_reps, np.uint32))
            for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    state = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]).astype(np.uint64)
    keys = (state[0::2] | state[1::2] << np.uint64(32)).T.tolist()
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    out = np.empty((n_reps, size))
    for row, (s_hi, s_lo, i_hi, i_lo) in zip(out, keys):
        # pcg64_set_seed: two LCG steps from state 0, adding the seed between them
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & (2**128 - 1)
        lcg = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & (2**128 - 1)
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": lcg, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=row)
    return out


@dataclass(frozen=True, eq=False)
class CoverageResult:
    coverage: float
    covered: np.ndarray
    x_classical: np.ndarray
    x_inverse: np.ndarray
    alpha: float
    x_true: float


def coverage_experiment(
    n_reps: int,
    beta_true: float,
    sigma: float,
    n: int,
    alpha: float,
    x_true: float,
    seed: int,
) -> CoverageResult:
    """Empirical coverage of the confidence set over replications (m = 1).

    Replication r is ``simulate_calibration(n, 1, 0.0, beta_true, sigma,
    x_true, [seed, r])``: its own stream, so batching and order do not matter.
    ``seed`` is a non-negative integer. The streams are seeded in bulk, and the
    confidence sets of all replications are inverted in one array evaluation.
    """
    check.count("n_reps", n_reps, 1)
    seed = check.count("seed", seed, 0)
    x = standardized_design(n)
    z = _replicate_normals(seed, n_reps, n + 1)
    # the fit sees the design centered, as make_calibration_data leaves it
    batch = _fit_rows(x - x.mean(), *_draw(x, 0.0, beta_true, sigma, x_true, z))
    covered = _covers(*_invert(batch, alpha), x_true)
    return CoverageResult(float(covered.mean()), covered, batch.x_classical, batch.x_inverse,
                          alpha, x_true)


@dataclass(frozen=True, eq=False)
class RiskResult:
    x_classical: np.ndarray
    x_inverse: np.ndarray
    x_true: float
    mse_inverse_half: float
    mse_inverse_full: float
    max_abs_classical: float
    median_abs_classical: float


def estimator_risk_experiment(
    n_reps: int,
    beta_true: float,
    sigma: float,
    n: int,
    x_true: float,
    seed: int,
) -> RiskResult:
    """Contrast the inverse estimator's stable MSE with the classical
    estimator's heavy tail (its mean squared error is infinite).

    Uses a compact design (x on [-1/2, 1/2], not rescaled) so the estimated
    slope crosses zero often enough for the classical estimator's outliers to
    show up at feasible replication counts. Replication r uses the stream
    default_rng([seed, r]), seeded in bulk as in ``coverage_experiment``;
    ``seed`` is a non-negative integer.
    """
    check.count("n_reps", n_reps, 2)  # the first half is compared with the whole
    seed = check.count("seed", seed, 0)
    x = np.linspace(-0.5, 0.5, check.count("n", n, 3))
    x = x - x.mean()
    z = _replicate_normals(seed, n_reps, n + 1)
    # centered once more, as make_calibration_data does
    batch = _fit_rows(x - x.mean(), *_draw(x, 0.0, beta_true, sigma, x_true, z))
    xc, xi = batch.x_classical, batch.x_inverse
    half = n_reps // 2
    mse_half = float(np.mean((xi[:half] - x_true) ** 2))
    mse_full = float(np.mean((xi - x_true) ** 2))
    return RiskResult(
        xc, xi, x_true, mse_half, mse_full,
        float(np.max(np.abs(xc))), float(np.median(np.abs(xc))),
    )
