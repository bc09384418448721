"""Bayesian treatment of discretized linear inverse problems, Gaussian-process
and RKHS regularization, smoothing splines, and inverse regression."""

__version__ = "0.1.0"

from .forward_ops import (  # noqa: F401
    ForwardOperator,
    Grid,
    apply,
    make_diffraction,
    make_gaussian_blur,
    make_gravity,
    make_groundwater,
    make_identity,
    make_travel_time,
    simulate_data,
)
from .fd_priors import (  # noqa: F401
    PrecisionRoot,
    build_jump,
    build_nonsmooth,
    build_smooth_interior,
    build_smooth_soft_boundary,
    build_smooth_zero_boundary,
    prior_log_density,
)
from .linear_posterior import (  # noqa: F401
    GaussianPosterior,
    discretized_penalty_norm,
    fit,
    posterior_covariance,
    posterior_sd,
    sample,
    tikhonov_objective,
)
from .gp_rkhs import (  # noqa: F401
    CovarianceKernel,
    GPRegressionFit,
    brownian_motion_kernel,
    gp_fit,
    gp_predict,
    gram,
    integrated_wiener_cov,
    nystrom_eigen,
    ou_kernel,
    penalty_quadratic_form,
    rkhs_norm_truncated,
    spectral_kernel,
    spline_cubic_kernel,
    squared_exponential_kernel,
)
from .spline import (  # noqa: F401
    SplineFit,
    spline_fit,
    spline_kernel,
    spline_predict,
)
from .inverse_regression import (  # noqa: F401
    CalibrationData,
    CalibrationEstimates,
    ConfidenceSet,
    Density1D,
    confidence_set,
    coverage_experiment,
    estimator_risk_experiment,
    fit_calibration,
    flat_prior,
    hoadley_informative_prior,
    hoadley_posterior,
    hoadley_t_posterior,
    inconsistency_experiment,
    make_calibration_data,
    poisson_xval_posterior,
    simulate_calibration,
)
