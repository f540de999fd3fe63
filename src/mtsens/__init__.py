"""Sensitivity analysis for unobserved confounding when many treatments
are observed at once.

The workflow: fit a probabilistic factor model to the treatments
(:func:`fit_ppca`), turn it into the conditional confounder distribution
(:func:`conditional_confounder`), fit an outcome model, then ask what a
latent confounder of a given strength could do to each effect estimate:
worst-case bias (:func:`worst_case_bias`), ignorance regions
(:func:`ignorance_region`), robustness values (:func:`robustness_value`),
Monte Carlo intervention means under an explicit copula
(:func:`intervention_mean_gaussian`), norm-minimizing candidate causal
models (:func:`mcc_minimize`), and risk-ratio analogues for binary
outcomes (:func:`rr_curve`, :func:`rr_ignorance_region`).
"""
from .bounds import (
    ContrastBoundSweep,
    IgnoranceRegion,
    RobustnessValue,
    WorstCaseDirection,
    bias_closed_form,
    contrast_bound_sweep,
    ignorance_region,
    robustness_value,
    single_treatment_bias,
    worst_case_bias,
    worst_case_direction,
)
from .calibrate import (
    benchmark_table,
    gamma_from_r2_direction,
    gamma_from_signed_r2,
    implicit_r2,
    partial_r2_treatment,
)
from .copula import (
    CopulaSpec,
    MonteCarloMean,
    SensitivitySpec,
    degaussianize,
    gaussian_copula_density,
    gaussianize,
    intervention_mean_gaussian,
    intervention_mean_general,
    marginal_contrast,
)
from .errors import (
    CalibrationError,
    ConvergenceError,
    DegenerateModelError,
    DimensionError,
    InputFormatError,
    InvalidCopulaError,
    MtsensError,
    PositivityError,
    SeparationError,
    SingularFitError,
)
from .factor import (
    ConditionalConfounder,
    Contrast,
    FactorModel,
    TreatmentMatrix,
    conditional_confounder,
    fit_ppca,
    load_confounder,
    load_factor_model,
    mu_delta,
    ppca_from_covariance,
    save_confounder,
    save_factor_model,
    select_dim,
)
from .mcc import (
    ContrastBank,
    MccReportRow,
    MccResult,
    build_bank_unitwise,
    mcc_minimize,
    mcc_report,
    pate_vector,
)
from .outcome import (
    BinaryOutcome,
    EmpiricalOutcome,
    GaussianOutcome,
    PolynomialMeanFn,
    conditional_cdf_quantile,
    fit_empirical,
    fit_linear,
    fit_probit,
    load_outcome,
    save_outcome,
)
from .proxy import ProxyFit, fit_proxy, sigma_u2_domain, tau_adjusted, tau_bounds
from .riskratio import binary_rv, rr_contrast, rr_curve, rr_ignorance_region, rr_single
from .simulate import (
    SimData,
    SimTruth,
    gen_gwas,
    gen_linear_gaussian,
    gen_nonlinear,
    naive_closed_form,
    rotation_sweep,
)

__version__ = "0.1.0"

# every public name imported above, without the submodules (errors among
# them) that the imports bind as attributes too
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(errors))
]
