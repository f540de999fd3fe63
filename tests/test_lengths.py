"""The one length rule: every public entry point that combines pieces sharing
the k treatments, the m confounder coordinates or the n rows of a panel
refuses a mismatch with DimensionError and the one message of
_linalg.check_length, never with numpy's ValueError or LinAlgError."""
import numpy as np
import pytest

import mtsens
from mtsens import (
    BinaryOutcome,
    ConditionalConfounder,
    Contrast,
    CopulaSpec,
    DimensionError,
    EmpiricalOutcome,
    GaussianOutcome,
    PolynomialMeanFn,
    SensitivitySpec,
    TreatmentMatrix,
)

K, M, N = 10, 2, 40
_RNG = np.random.default_rng(30)
SIGMA = np.array([[0.5, 0.1], [0.1, 0.4]])
CC = ConditionalConfounder(coef=_RNG.normal(size=(M, K)), sigma_u_given_t=SIGMA)
OBSERVED = TreatmentMatrix(_RNG.normal(size=(N, K)))
SHORT_PANEL = TreatmentMatrix(_RNG.normal(size=(N, 7)))
Y = _RNG.normal(size=N)
Y_BINARY = (Y > 0).astype(float)


def _linear(k):
    return GaussianOutcome(tau_naive=np.linspace(-1.0, 1.0, k), intercept=0.2,
                           sigma2_y_given_t=1.0)


def _empirical(k):
    fn = PolynomialMeanFn(degree=2, intercept=0.1, coef=np.full((k, 2), 0.05))
    return EmpiricalOutcome(mean_fn=fn, residual_quantiles=np.linspace(-1.0, 1.0, 9),
                            sigma2_y_given_t=0.5)


def _probit(k):
    return BinaryOutcome(probit_coef=np.linspace(-0.3, 0.3, k), probit_intercept=0.1,
                         p_y1=0.5)


LIN, EMP, PROBIT = _linear(K), _empirical(K), _probit(K)
LIN7, EMP7, PROBIT7 = _linear(7), _empirical(7), _probit(7)
SPEC = SensitivitySpec.from_gamma(np.array([0.3, -0.2]), SIGMA)
# a valid spec of the wrong confounder dimension, m = 3
SPEC3 = SensitivitySpec.from_gamma(np.full(3, 0.2), 0.5 * np.eye(3))
GAMMA3, D3 = np.full(3, 0.2), np.full(3, 1.0 / np.sqrt(3.0))
POINT7 = np.zeros(7)
C = Contrast.unit(K, 0)
C7 = Contrast(np.ones(7), np.zeros(7))
BANK = mtsens.build_bank_unitwise(CC, OBSERVED, LIN)
GAUSSIAN = CopulaSpec("gaussian", gamma=SPEC.gamma)
SHORT_Y = Y[:-1]
_MC = dict(n_sim=4, max_rows=10)
_IS = dict(m_draws=4, n_draws=2, max_rows=10)

CASES = {
    # a point of the wrong k
    "GaussianOutcome.mean/point": lambda: LIN.mean(POINT7),
    "BinaryOutcome.mu_y/point": lambda: PROBIT.mu_y(POINT7),
    "EmpiricalOutcome.mean/point": lambda: EMP.mean(POINT7),
    "mu_u_given_t/point": lambda: CC.mu_u_given_t(POINT7),
    "conditional_cdf_quantile/point": lambda: mtsens.conditional_cdf_quantile(LIN, POINT7),
    "gaussianize/point": lambda: mtsens.gaussianize(LIN, POINT7, 0.0),
    "degaussianize/point": lambda: mtsens.degaussianize(LIN, POINT7, 0.0),
    "Contrast/point": lambda: Contrast(np.zeros(K), POINT7),
    "mu_delta/point": lambda: mtsens.mu_delta(CC, C7),
    "bias_closed_form/point": lambda: mtsens.bias_closed_form(SPEC, CC, 1.0, C7),
    "worst_case_bias/point": lambda: mtsens.worst_case_bias(CC, 1.0, 0.5, C7),
    "ignorance_region/point": lambda: mtsens.ignorance_region(0.0, CC, 1.0, 0.5, C7),
    "robustness_value/point": lambda: mtsens.robustness_value(1.0, CC, 1.0, C7),
    "worst_case_direction/point": lambda: mtsens.worst_case_direction(CC, C7),
    "intervention_mean_gaussian/point": lambda: mtsens.intervention_mean_gaussian(
        POINT7, SPEC, CC, LIN, OBSERVED, **_MC),
    "marginal_contrast/point": lambda: mtsens.marginal_contrast(
        C7, SPEC, CC, LIN, OBSERVED, **_MC),
    "intervention_mean_general/point": lambda: mtsens.intervention_mean_general(
        POINT7, GAUSSIAN, CC, LIN, OBSERVED, **_IS),
    "rr_single/point": lambda: mtsens.rr_single(POINT7, SPEC, CC, PROBIT, OBSERVED),
    "rr_contrast/point": lambda: mtsens.rr_contrast(C7, SPEC, CC, PROBIT, OBSERVED),
    "rr_curve/point": lambda: mtsens.rr_curve(C7, CC, PROBIT, OBSERVED, SPEC.direction,
                                              [0.5]),
    "rr_ignorance_region/point": lambda: mtsens.rr_ignorance_region(
        C7, CC, PROBIT, OBSERVED, 0.5),
    "binary_rv/point": lambda: mtsens.binary_rv(C7, CC, PROBIT, OBSERVED),
    # a panel of the wrong k
    "intervention_mean_gaussian/panel": lambda: mtsens.intervention_mean_gaussian(
        np.zeros(K), SPEC, CC, LIN, SHORT_PANEL, **_MC),
    "marginal_contrast/panel": lambda: mtsens.marginal_contrast(
        C, SPEC, CC, LIN, SHORT_PANEL, **_MC),
    "intervention_mean_general/panel": lambda: mtsens.intervention_mean_general(
        np.zeros(K), GAUSSIAN, CC, LIN, SHORT_PANEL, **_IS),
    "rr_single/panel": lambda: mtsens.rr_single(np.zeros(K), SPEC, CC, PROBIT, SHORT_PANEL),
    "rr_curve/panel": lambda: mtsens.rr_curve(C, CC, PROBIT, SHORT_PANEL, SPEC.direction,
                                              [0.5]),
    "rr_ignorance_region/panel": lambda: mtsens.rr_ignorance_region(
        C, CC, PROBIT, SHORT_PANEL, 0.5),
    "build_bank_unitwise/panel": lambda: mtsens.build_bank_unitwise(CC, SHORT_PANEL, LIN),
    # an outcome of the wrong k
    "intervention_mean_gaussian/linear outcome": lambda: mtsens.intervention_mean_gaussian(
        np.zeros(K), SPEC, CC, LIN7, OBSERVED, **_MC),
    "intervention_mean_gaussian/empirical outcome": (
        lambda: mtsens.intervention_mean_gaussian(np.zeros(K), SPEC, CC, EMP7, OBSERVED,
                                                  **_MC)),
    "intervention_mean_gaussian/probit outcome": lambda: mtsens.intervention_mean_gaussian(
        np.zeros(K), SPEC, CC, PROBIT7, OBSERVED, **_MC),
    "marginal_contrast/outcome": lambda: mtsens.marginal_contrast(
        C, SPEC, CC, LIN7, OBSERVED, **_MC),
    "intervention_mean_general/outcome": lambda: mtsens.intervention_mean_general(
        np.zeros(K), GAUSSIAN, CC, LIN7, OBSERVED, **_IS),
    "implicit_r2/outcome": lambda: mtsens.implicit_r2(OBSERVED, Y_BINARY, PROBIT7),
    "rr_single/outcome": lambda: mtsens.rr_single(np.zeros(K), SPEC, CC, PROBIT7, OBSERVED),
    "rr_curve/outcome": lambda: mtsens.rr_curve(C, CC, PROBIT7, OBSERVED, SPEC.direction,
                                                [0.5]),
    "binary_rv/outcome": lambda: mtsens.binary_rv(C, CC, PROBIT7, OBSERVED),
    "build_bank_unitwise/outcome": lambda: mtsens.build_bank_unitwise(CC, OBSERVED, LIN7),
    # a gamma or direction of the wrong m
    "SensitivitySpec.from_gamma/gamma": lambda: SensitivitySpec.from_gamma(GAMMA3, SIGMA),
    "SensitivitySpec.from_r2_direction/direction": (
        lambda: SensitivitySpec.from_r2_direction(0.5, D3, SIGMA)),
    "gamma_from_r2_direction/direction": lambda: mtsens.gamma_from_r2_direction(
        0.5, D3, SIGMA),
    "gamma_from_signed_r2/direction": lambda: mtsens.gamma_from_signed_r2(-0.5, D3, SIGMA),
    "bias_closed_form/gamma": lambda: mtsens.bias_closed_form(SPEC3, CC, 1.0, C),
    "intervention_mean_gaussian/gamma": lambda: mtsens.intervention_mean_gaussian(
        np.zeros(K), SPEC3, CC, LIN, OBSERVED, **_MC),
    "marginal_contrast/gamma": lambda: mtsens.marginal_contrast(
        C, SPEC3, CC, LIN, OBSERVED, **_MC),
    "intervention_mean_general/gamma": lambda: mtsens.intervention_mean_general(
        np.zeros(K), CopulaSpec("gaussian", gamma=GAMMA3), CC, LIN, OBSERVED, **_IS),
    "gaussian_copula_density/gamma": lambda: mtsens.gaussian_copula_density(
        GAMMA3, SIGMA, 0.5, np.full(2, 0.5)),
    "gaussian_copula_density/q": lambda: mtsens.gaussian_copula_density(
        SPEC.gamma, SIGMA, 0.5, np.full(3, 0.5)),
    "rr_single/gamma": lambda: mtsens.rr_single(np.zeros(K), SPEC3, CC, PROBIT, OBSERVED),
    "rr_contrast/gamma": lambda: mtsens.rr_contrast(C, SPEC3, CC, PROBIT, OBSERVED),
    "rr_curve/direction": lambda: mtsens.rr_curve(C, CC, PROBIT, OBSERVED, D3, [0.5]),
    "pate_vector/gamma": lambda: mtsens.pate_vector(BANK, SPEC3),
    "mcc_report/gamma": lambda: mtsens.mcc_report(BANK, GAMMA3),
    # a map of the wrong shape
    "SensitivitySpec.transformed/map": lambda: SPEC.transformed(np.eye(3), SIGMA),
    "reparameterized/map": lambda: CC.reparameterized(np.eye(3)),
    # a response of the wrong n
    "fit_linear/response": lambda: mtsens.fit_linear(OBSERVED, SHORT_Y),
    "fit_probit/response": lambda: mtsens.fit_probit(OBSERVED, Y_BINARY[:-1]),
    "fit_empirical/response": lambda: mtsens.fit_empirical(OBSERVED, SHORT_Y),
    "partial_r2_treatment/response": lambda: mtsens.partial_r2_treatment(
        OBSERVED, SHORT_Y, 0),
    "benchmark_table/response": lambda: mtsens.benchmark_table(OBSERVED, SHORT_Y),
    "implicit_r2/response": lambda: mtsens.implicit_r2(OBSERVED, Y_BINARY[:-1], PROBIT, 0),
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_mismatch_raises_the_one_length_error(case):
    with pytest.raises(DimensionError, match=r"^.+ has length \d+, expected \d+$") as exc:
        CASES[case]()
    assert exc.type is DimensionError


def test_matching_pieces_pass_the_rule():
    # the same calls with every piece of one k and one m
    assert np.isfinite(LIN.mean(np.zeros(K)))
    assert np.isfinite(EMP.mean(np.zeros((3, K)))).all()
    assert CC.mu_u_given_t(np.zeros((3, K))).shape == (3, M)
    assert np.isfinite(mtsens.marginal_contrast(C, SPEC, CC, EMP, OBSERVED, **_MC))
    assert np.isfinite(mtsens.intervention_mean_general(
        np.zeros(K), GAUSSIAN, CC, LIN, OBSERVED, **_IS))
    assert SPEC.transformed(2.0 * np.eye(M), SIGMA).gamma == pytest.approx(SPEC.gamma / 2.0)
    assert mtsens.pate_vector(BANK, SPEC).shape == (K,)


def test_a_custom_mean_fn_has_no_length_rule():
    # EmpiricalOutcome.k is None for a custom callable, and the rule skips it
    custom = EmpiricalOutcome(mean_fn=lambda t: np.asarray(t)[..., 0],
                              residual_quantiles=np.linspace(-1.0, 1.0, 5),
                              sigma2_y_given_t=1.0)
    assert custom.k is None and EMP.k == K
    assert np.isfinite(mtsens.intervention_mean_gaussian(
        np.zeros(K), SPEC, CC, custom, OBSERVED, **_MC))


def test_a_scalar_is_the_point_of_length_one():
    # at k = 1 the outcome means raised numpy's ValueError on a scalar
    # point, and at m = 1 the copula density an IndexError on a scalar q
    lin, probit = _linear(1), _probit(1)
    assert lin.mean(0.3) == lin.mean([0.3]) == 0.2 - 0.3
    assert probit.mu_y(0.3) == probit.mu_y([0.3])
    density = mtsens.gaussian_copula_density
    assert density([0.5], [[1.0]], 0.4, 0.7) == density([0.5], [[1.0]], 0.4, [0.7])
    with pytest.raises(DimensionError, match="t has length 1, expected 10"):
        LIN.mean(0.3)
