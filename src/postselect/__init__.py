"""Distributions of linear transforms of post-model-selection estimators.

Exact finite-sample cdfs and densities of sqrt(n) A (theta_tilde - theta) in
the Gaussian linear model, where theta_tilde fits by restricted least squares
in a model chosen by a general-to-specific sequence of t-tests, together with
the matching large-sample limits, a Monte Carlo oracle that runs the actual
procedure, and a CLI for reproducing the standard numerical illustrations.
"""

__version__ = "0.1.0"

from .asymptotic import (
    LimitParameter,
    limit_bias,
    limit_cdf,
    limit_selection_prob,
    local_alternative_limit,
    local_shift_vector,
    p_star,
    recentered_cdf,
)
from .distribution import (
    DensityUndefinedError,
    DistributionResult,
    TwoRegressorSetting,
    cdf_known_variance,
    cdf_unknown_variance,
    density_known_variance,
    density_unknown_variance,
    two_regressor_density,
    weighted_conditional_cdf,
)
from .kernels import (
    QuadratureSpec,
    QuadResult,
    chi_scaled_density,
    chi_scaled_quantile,
    delta,
    gaussian_region_prob,
    sample_gaussian,
)
from .model import (
    GaussianComponent,
    IllConditionedError,
    ParameterPoint,
    RegressionDesign,
    SelectionFamily,
    TargetFunctional,
    conditional_quantities,
    design_from_gram,
    gaussian_component,
    load_design_csv,
    order_of,
    restricted_ls_mean,
    xi,
)
from .montecarlo import (
    SimulationReport,
    empirical_cdf,
    ks_distance,
    ks_grid,
    power_check_noncentral_t,
    simulate,
)
from .selection import (
    DegenerateResidualError,
    SelectionOutcome,
    select_model,
    select_model_known_sigma,
    selection_prob_known,
    selection_prob_unknown,
)

__all__ = [
    "__version__",
    "LimitParameter",
    "limit_bias",
    "limit_cdf",
    "limit_selection_prob",
    "local_alternative_limit",
    "local_shift_vector",
    "p_star",
    "recentered_cdf",
    "DensityUndefinedError",
    "DistributionResult",
    "TwoRegressorSetting",
    "cdf_known_variance",
    "cdf_unknown_variance",
    "density_known_variance",
    "density_unknown_variance",
    "two_regressor_density",
    "weighted_conditional_cdf",
    "QuadratureSpec",
    "QuadResult",
    "chi_scaled_density",
    "chi_scaled_quantile",
    "delta",
    "gaussian_region_prob",
    "sample_gaussian",
    "GaussianComponent",
    "IllConditionedError",
    "ParameterPoint",
    "RegressionDesign",
    "SelectionFamily",
    "TargetFunctional",
    "conditional_quantities",
    "design_from_gram",
    "gaussian_component",
    "load_design_csv",
    "order_of",
    "restricted_ls_mean",
    "xi",
    "SimulationReport",
    "empirical_cdf",
    "ks_distance",
    "ks_grid",
    "power_check_noncentral_t",
    "simulate",
    "DegenerateResidualError",
    "SelectionOutcome",
    "select_model",
    "select_model_known_sigma",
    "selection_prob_known",
    "selection_prob_unknown",
]
