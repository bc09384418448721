"""The input-validation policy shared by every public entry point.

Each helper checks one argument and raises ``ValueError`` with a message that
begins with the argument's name. Comparisons are written so that NaN fails
them. Entry points call these once per call, never inside the per-point
callbacks (log-densities, prior closures, kernel ``evaluate``) that
quadrature and root finding call many times.
"""

from __future__ import annotations

import math

import numpy as np


def positive(name: str, v) -> float:
    """``v`` as a float; it must lie in (0, inf)."""
    if not 0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {v}")
    return float(v)


def finite(name: str, v, shape=None) -> np.ndarray:
    """``np.asarray(v, float)``; every entry finite and, if given, of ``shape``."""
    arr = np.asarray(v, dtype=float)
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"{name} has shape {arr.shape}, expected {tuple(shape)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def count(name: str, v, low: int, high: int | None = None) -> int:
    """``v`` as an int; a non-bool integer in [low, high] (unbounded above if None)."""
    if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
            or not low <= v <= (math.inf if high is None else high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {v}")
    return int(v)


def inside(name: str, arr: np.ndarray, domain) -> np.ndarray:
    """``arr`` unchanged; every entry must lie in the closed interval ``domain``."""
    lo, hi = domain
    if not np.all((lo <= arr) & (arr <= hi)):
        # shortest round-trip values, so a widened end such as 1.000000001 shows
        ends = (repr(float(v)).removesuffix(".0") for v in domain)
        raise ValueError(f"{name} must lie in [{', '.join(ends)}]")
    return arr


def representable(name: str, v, compute):
    """``compute()``: a float, or a tuple of floats, that a formula derives from
    the valid argument ``v``. Each must be non-zero and finite; an under- or
    overflow, raised or silent, becomes a ``ValueError`` naming ``name``."""
    try:
        out = compute()
    except (ZeroDivisionError, OverflowError):
        out = math.nan
    size = np.abs(out)
    if not np.all((0 < size) & (size < math.inf)):
        raise ValueError(f"{name} = {v} under- or overflows in the arithmetic on it")
    return out
