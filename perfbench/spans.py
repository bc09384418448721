"""Spans around the library's public functions, wrapped from outside.

``Tracer.install()`` replaces module attributes (and ``Density1D`` methods)
with wrappers that record a span per call: name, start, end, parent span and
job id, plus computed counts such as flops.  Calls made inside the library
through a module-level name (``gp_fit`` -> ``gram``, ``quantile`` -> ``cdf``,
``cli.main`` -> ``linear_posterior.fit``) therefore nest as child spans.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
metrics and ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from bayesinv import cli
from bayesinv import fd_priors as fp
from bayesinv import forward_ops as fo
from bayesinv import gp_rkhs as gr
from bayesinv import inverse_regression as ir
from bayesinv import linear_posterior as lp
from bayesinv import spline as sp
from scipy.integrate import IntegrationWarning

GFLOP = 1e-9
MB = 1e-6


@dataclass
class Span:
    name: str
    start: float
    parent: int
    job: int
    end: float = 0.0
    failed: bool = False
    extra: dict = field(default_factory=dict)


def _fit_counts(args, kwargs, post) -> dict:
    """KᵀK (2mn²), MᵀM (2pn²), Cholesky (n³/3) and the two n-vector solves."""
    (m, n), p = post.operator.matrix.shape, post.prior.matrix.shape[0]
    flop = 2 * m * n * n + 2 * p * n * n + n**3 / 3 + 2 * m * n + 2 * n * n
    words = m * n + p * n + 2 * n * n  # K, M, H and its factor
    return {"gflop": flop * GFLOP, "mb": 8 * words * MB}


def _covariance_counts(args, kwargs, cov) -> dict:
    """cho_solve against the identity: two triangular solves, 2n³."""
    n = cov.shape[0]
    return {"gflop": 2 * n**3 * GFLOP, "mb": 8 * 3 * n * n * MB}


def _gp_fit_counts(args, kwargs, fit) -> dict:
    """Cholesky (n³/3), its solve (2n²) and the singular values in cond (8n³/3)."""
    n = fit.x_train.size
    return {"gflop": (n**3 / 3 + 2 * n * n + 8 * n**3 / 3) * GFLOP, "mb": 8 * 2 * n * n * MB}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# (owner, attribute, span name or name-from-arguments, counts from the result)
Target = tuple[object, str, object, Optional[Callable]]


def _targets() -> list[Target]:
    discretize = ("make_gaussian_blur", "make_travel_time", "make_gravity",
                  "make_diffraction", "make_groundwater", "make_identity")
    targets: list[Target] = [
        (fo, a, "forward_ops.discretize", lambda a_, k_, op: {"mb": op.matrix.nbytes * MB})
        for a in discretize
    ]
    targets.append((fo, "simulate_data", "forward_ops.simulate", None))
    for a in ("build_smooth_interior", "build_smooth_zero_boundary", "build_nonsmooth", "build_jump"):
        targets.append((fp, a, "fd_priors.build", None))
    targets += [
        (fp, "build_smooth_soft_boundary", "fd_priors.soft_boundary", None),
        (lp, "fit", "linear_posterior.fit", _fit_counts),
        (lp, "posterior_covariance", "linear_posterior.covariance", _covariance_counts),
        (lp, "sample", "linear_posterior.sample", None),
        (gr, "gram", "gp_rkhs.gram", None),
        (gr, "gp_fit", "gp_rkhs.gp_fit", _gp_fit_counts),
        (gr, "gp_predict", "gp_rkhs.predict", None),
        (gr, "gp_predict_curve", "gp_rkhs.predict", None),
        (gr, "spectral_kernel", "gp_rkhs.spectral", lambda a, k, vals: {"lags": np.size(vals)}),
        (gr, "nystrom_eigen", "gp_rkhs.nystrom", None),
        (sp, "spline_fit", lambda a, k: f"spline.fit_m{_arg(a, k, 4, 'm_order', 2)}", None),
        (sp, "spline_predict", "spline.predict", None),
        (ir.Density1D, "__init__", "inverse_regression.posterior", None),
        (ir.Density1D, "mean", "inverse_regression.density_mean", None),
        (ir.Density1D, "quantile", "inverse_regression.density_quantile", None),
        (ir.Density1D, "cdf", "inverse_regression.density_cdf", None),
        (ir.Density1D, "pdf", "inverse_regression.density_pdf", None),
        (ir, "coverage_experiment", "inverse_regression.mc",
         lambda a, k, res: {"reps": _arg(a, k, 0, "n_reps")}),
        (ir, "estimator_risk_experiment", "inverse_regression.mc",
         lambda a, k, res: {"reps": _arg(a, k, 0, "n_reps")}),
        (cli, "main", lambda a, k: "cli." + _arg(a, k, 0, "argv")[0].replace("-", "_"), None),
    ]
    return targets


class Tracer:
    """Records spans while ``job`` is set; calls outside a job pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.integration_warnings = 0
        self.job: Optional[int] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        for owner, attr, name, counts in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn: Callable, name, counts: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(label, 0.0, parent, tracer.job)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                span.extra = counts(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def capture_warnings(self):
        """Count IntegrationWarnings raised inside the block instead of printing them."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            yield
        self.integration_warnings += sum(issubclass(w.category, IntegrationWarning) for w in caught)

    def dump(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, "failed": s.failed, **s.extra}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _busy(spans: list[Span], names: set[str]) -> tuple[float, list[Span]]:
    """Summed time of spans in ``names`` that have no ancestor in ``names``."""
    top = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            top.append(s)
    return sum(s.end - s.start for s in top), top


def _self_time(spans: list[Span], prefix: str) -> float:
    """Span time minus the time covered by direct child spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    return sum((s.end - s.start) - child_time[i]
               for i, s in enumerate(spans) if s.name.startswith(prefix))


CLI_COMMANDS = ("demo_linear", "gp", "calibrate", "inconsistency")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "forward_ops.discretize.busy_s": "s",
    "forward_ops.discretize.calls": "count",
    "forward_ops.simulate.busy_s": "s",
    "forward_ops.matrix_mb": "MB",
    "fd_priors.build.busy_s": "s",
    "fd_priors.build.calls": "count",
    "fd_priors.soft_boundary.busy_s": "s",
    "linear_posterior.fit.busy_s": "s",
    "linear_posterior.fit.calls": "count",
    "linear_posterior.fit.gflop": "GFLOP",
    "linear_posterior.fit.gflops": "GFLOP/s",
    "linear_posterior.fit.mb": "MB",
    "linear_posterior.covariance.busy_s": "s",
    "linear_posterior.covariance.gflop": "GFLOP",
    "linear_posterior.covariance.gflops": "GFLOP/s",
    "linear_posterior.sample.busy_s": "s",
    "gp_rkhs.gram.busy_s": "s",
    "gp_rkhs.gp_fit.self_s": "s",
    "gp_rkhs.gp_fit.calls": "count",
    "gp_rkhs.gp_fit.gflop": "GFLOP",
    "gp_rkhs.gp_fit.gflops": "GFLOP/s",
    "gp_rkhs.predict.busy_s": "s",
    "gp_rkhs.spectral.busy_s": "s",
    "gp_rkhs.spectral.lags": "count",
    "gp_rkhs.nystrom.busy_s": "s",
    "spline.fit_m1.busy_s": "s",
    "spline.fit_m2.busy_s": "s",
    "spline.fit_m3.busy_s": "s",
    "spline.predict.busy_s": "s",
    "inverse_regression.posterior.busy_s": "s",
    "inverse_regression.density_mean.busy_s": "s",
    "inverse_regression.density_quantile.busy_s": "s",
    "inverse_regression.density_cdf.calls": "count",
    "inverse_regression.cdf_calls_per_quantile": "count",
    "inverse_regression.density_pdf.busy_s": "s",
    "inverse_regression.mc.busy_s": "s",
    "inverse_regression.mc.reps_per_s": "1/s",
    "inverse_regression.normalize_failures": "count",
    "inverse_regression.integration_warnings": "count",
    **{f"cli.{c}.busy_s": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "process.cpu_s": "s",
    "trace.overhead_frac": "fraction",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values from the spans; the caller adds the process-level ones."""
    out: dict[str, float] = {}

    def busy(key: str, *also: str) -> list[Span]:
        """Record ``key.busy_s`` over spans named ``key`` or ``also``; return the top ones."""
        out[f"{key}.busy_s"], top = _busy(spans, {key, *also})
        return top

    def total(top: list[Span], field_: str) -> float:
        return float(sum(s.extra.get(field_, 0.0) for s in top))

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    top = busy("forward_ops.discretize")
    out["forward_ops.discretize.calls"] = len(top)
    busy("forward_ops.simulate")
    out["forward_ops.matrix_mb"] = total(top, "mb")

    top = busy("fd_priors.build", "fd_priors.soft_boundary")
    out["fd_priors.build.calls"] = len(top)
    busy("fd_priors.soft_boundary")

    top = busy("linear_posterior.fit")
    out["linear_posterior.fit.calls"] = len(top)
    out["linear_posterior.fit.gflop"] = total(top, "gflop")
    out["linear_posterior.fit.gflops"] = rate(total(top, "gflop"), out["linear_posterior.fit.busy_s"])
    out["linear_posterior.fit.mb"] = total(top, "mb")
    top = busy("linear_posterior.covariance")
    out["linear_posterior.covariance.gflop"] = total(top, "gflop")
    out["linear_posterior.covariance.gflops"] = rate(
        total(top, "gflop"), out["linear_posterior.covariance.busy_s"])
    busy("linear_posterior.sample")

    busy("gp_rkhs.gram")
    top = busy("gp_rkhs.gp_fit")
    out["gp_rkhs.gp_fit.self_s"] = _self_time(spans, "gp_rkhs.gp_fit")
    out["gp_rkhs.gp_fit.calls"] = len(top)
    out["gp_rkhs.gp_fit.gflop"] = total(top, "gflop")
    out["gp_rkhs.gp_fit.gflops"] = rate(total(top, "gflop"), out.pop("gp_rkhs.gp_fit.busy_s"))
    busy("gp_rkhs.predict")
    top = busy("gp_rkhs.spectral")
    out["gp_rkhs.spectral.lags"] = total(top, "lags")
    busy("gp_rkhs.nystrom")

    for m in (1, 2, 3):
        busy(f"spline.fit_m{m}")
    busy("spline.predict")

    ir_ = "inverse_regression"
    top = busy(f"{ir_}.posterior")
    out[f"{ir_}.normalize_failures"] = sum(s.failed for s in top)
    busy(f"{ir_}.density_mean")
    quantiles = busy(f"{ir_}.density_quantile")
    cdf_spans = [s for s in spans if s.name == f"{ir_}.density_cdf"]
    out[f"{ir_}.density_cdf.calls"] = len(cdf_spans)
    under_quantile = sum(1 for s in cdf_spans
                         if s.parent >= 0 and spans[s.parent].name == f"{ir_}.density_quantile")
    out[f"{ir_}.cdf_calls_per_quantile"] = rate(under_quantile, len(quantiles))
    busy(f"{ir_}.density_pdf")
    top = busy(f"{ir_}.mc")
    out[f"{ir_}.mc.reps_per_s"] = rate(total(top, "reps"), out[f"{ir_}.mc.busy_s"])

    for c in CLI_COMMANDS:
        busy(f"cli.{c}")
    out["cli.self_s"] = _self_time(spans, "cli.")
    return out
