"""Bayesian treatment of discretized linear inverse problems, Gaussian-process
and RKHS regularization, smoothing splines, and inverse regression.

The package namespace is the union of the numerical modules' ``__all__``;
``cli`` and ``csvio`` stay out of it.
"""

__version__ = "0.1.0"

from . import fd_priors, forward_ops, gp_rkhs, inverse_regression, linear_posterior, spline
from .forward_ops import *  # noqa: F401,F403
from .fd_priors import *  # noqa: F401,F403
from .linear_posterior import *  # noqa: F401,F403
from .gp_rkhs import *  # noqa: F401,F403
from .spline import *  # noqa: F401,F403
from .inverse_regression import *  # noqa: F401,F403

__all__ = list(dict.fromkeys(
    name
    for module in (forward_ops, fd_priors, linear_posterior, gp_rkhs, spline, inverse_regression)
    for name in module.__all__
))
