"""The public API: what `from mtsens import *` exports."""
import mtsens

PUBLIC = {
    "BinaryOutcome", "CalibrationError", "ConditionalConfounder", "Contrast",
    "ContrastBank", "ContrastBoundSweep", "ConvergenceError", "CopulaSpec",
    "DegenerateModelError", "DimensionError", "EmpiricalOutcome", "FactorModel",
    "GaussianOutcome", "IgnoranceRegion", "InputFormatError", "InvalidCopulaError",
    "MccReportRow", "MccResult", "MonteCarloMean", "MtsensError", "PolynomialMeanFn",
    "PositivityError", "ProxyFit", "RobustnessValue", "SensitivitySpec",
    "SeparationError", "SimData", "SimTruth", "SingularFitError", "TreatmentMatrix",
    "WorstCaseDirection", "__version__", "benchmark_table", "bias_closed_form",
    "binary_rv", "build_bank_unitwise", "conditional_cdf_quantile",
    "conditional_confounder", "contrast_bound_sweep", "degaussianize", "fit_empirical",
    "fit_linear", "fit_ppca", "fit_probit", "fit_proxy", "gamma_from_r2_direction",
    "gamma_from_signed_r2", "gaussian_copula_density", "gaussianize", "gen_gwas",
    "gen_linear_gaussian", "gen_nonlinear", "ignorance_region", "implicit_r2",
    "intervention_mean_gaussian", "intervention_mean_general", "load_confounder",
    "load_factor_model", "load_outcome", "marginal_contrast", "mcc_minimize",
    "mcc_report", "mu_delta", "naive_closed_form", "partial_r2_treatment",
    "pate_vector", "ppca_from_covariance", "robustness_value", "rotation_sweep",
    "rr_contrast", "rr_curve", "rr_ignorance_region", "rr_single", "save_confounder",
    "save_factor_model", "save_outcome", "select_dim", "sigma_u2_domain",
    "single_treatment_bias", "tau_adjusted", "tau_bounds", "worst_case_bias",
    "worst_case_direction",
}


def test_public_names_are_pinned():
    assert set(mtsens.__all__) == PUBLIC
    assert len(mtsens.__all__) == len(PUBLIC)
    assert all(hasattr(mtsens, name) for name in PUBLIC)
