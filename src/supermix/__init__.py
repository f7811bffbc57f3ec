"""Supersmooth kernel mixtures: spectral approximation operators,
moment-matched discretization, stick-breaking and normalized
inverse-Gaussian priors, and desk-scale posterior experiments."""

__version__ = "0.1.0"

from .gridfn import (
    GridFunction,
    band_limit,
    convolve,
    lp_norm,
    spectral_derivative,
)
from .kernels import (
    CatalogDensity,
    KernelSpec,
    SupersmoothClass,
    catalog_density,
    kernel_grid,
    parse_kernel_id,
    sinc_approx_error,
    sinc_quadratic_variation,
    supersmooth_class,
)
from .transforms import (
    DELTA_DEFAULT,
    TransformCoefficients,
    TransformResult,
    coefficients,
    gaussian_smoothing_error,
    make_nonnegative,
    spectral_symbol_check,
    transform_analytic,
    transform_sobolev,
)
from .discretize import (
    DiscreteMixingMeasure,
    SupportBudget,
    finite_gaussian_mixture,
    moment_match,
    partition_discretize,
    support_budget,
)
from .metrics import (
    interpolation_checks,
    kl_divergence,
    second_log_moment,
    wasserstein,
)
from .priors import (
    BaseMeasure,
    FittedConstants,
    NIGParams,
    PYParams,
    ScalePriorA0,
    StickBreakingDraw,
    nig_density,
    nig_log_density,
    nig_sample,
    prior_mass_bound_nig,
    prior_mass_bound_py_locations,
    prior_mass_bound_py_sticks,
    py_sample,
)
from .posterior import (
    Chain,
    ContractionRow,
    FitConfig,
    NIGPartitionPrior,
    PosteriorDraw,
    TruthSpec,
    blocked_gibbs_fit,
    contraction_experiment,
    posterior_mean_density,
    wasserstein_recovery_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
