"""Semiparametric multinomial logit models via kernel-smoothed profile likelihood.

A small numpy library for discrete-choice analysis where some covariates
enter the predictor linearly and the rest through unknown smooth
multivariate functions, estimated by localising the likelihood with a
Gaussian product kernel inside a profile-likelihood Newton-Raphson
scheme.  Ships with a fully parametric MNL benchmark, IIA specification
tests, a synthetic-data harness, and a CLI (``semilogit --help``).
"""

from .core import (
    Dataset,
    dataset_log_likelihood,
    linear_predictors,
    log_likelihood_contribution,
    nonreference_categories,
    score_and_curvature,
    softmax_probabilities,
)
from .exceptions import (
    ConfigError,
    DegenerateCovariateError,
    EmptyDatasetError,
    InsufficientDataError,
    InvalidPredictorError,
    NoLocalDataError,
    NonIdentifiedError,
    NumericalFailureError,
    OracleFailureError,
    SemilogitError,
    SeparationError,
    ShapeError,
)
from .iia import (
    IIATestResult,
    chi_square_upper_tail,
    hausman_mcfadden,
    iia_all_permutations,
    regularized_gamma_p,
    small_hsiao,
)
from .kernels import (
    KernelConfig,
    bandwidth_from_scale,
    bandwidth_grid,
    kernel_weight,
    kernel_weights,
)
from .oracles import (
    golden_section,
    local_m_update,
    local_smoothed_score,
    m_gradient,
    oracle_local_solve,
    oracle_mle,
)
from .parametric import (
    ParametricFitResult,
    fit_parametric,
    fitted_probabilities,
    standard_errors,
)
from .profile import (
    SemiparametricFitResult,
    SmoothState,
    beta_update,
    fit_semiparametric,
    predict_probabilities,
    predict_surface,
    profile_loglik,
    profile_scores,
)
from .synthesis import DGPSpec, evaluate_smooth, simulate, true_probabilities

__version__ = "0.1.0"

__all__ = [
    "Dataset", "DGPSpec", "IIATestResult", "KernelConfig",
    "ParametricFitResult", "SemiparametricFitResult", "SmoothState",
    "bandwidth_from_scale", "bandwidth_grid", "beta_update",
    "chi_square_upper_tail", "dataset_log_likelihood", "evaluate_smooth",
    "fit_parametric", "fit_semiparametric", "fitted_probabilities",
    "golden_section", "hausman_mcfadden", "iia_all_permutations",
    "kernel_weight", "kernel_weights", "linear_predictors",
    "local_m_update", "local_smoothed_score", "log_likelihood_contribution",
    "m_gradient", "nonreference_categories", "oracle_local_solve",
    "oracle_mle", "predict_probabilities", "predict_surface",
    "profile_loglik", "profile_scores", "regularized_gamma_p",
    "score_and_curvature", "simulate", "small_hsiao",
    "softmax_probabilities", "standard_errors", "true_probabilities",
    "SemilogitError", "ConfigError", "DegenerateCovariateError",
    "EmptyDatasetError", "InsufficientDataError", "InvalidPredictorError",
    "NoLocalDataError", "NonIdentifiedError", "NumericalFailureError",
    "OracleFailureError", "SeparationError", "ShapeError",
]
