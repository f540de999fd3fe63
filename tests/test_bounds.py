import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsens import (
    CalibrationError,
    ConditionalConfounder,
    Contrast,
    ContrastBank,
    CopulaSpec,
    DegenerateModelError,
    FactorModel,
    GaussianOutcome,
    IgnoranceRegion,
    InputFormatError,
    InvalidCopulaError,
    SensitivitySpec,
    TreatmentMatrix,
    bias_closed_form,
    conditional_confounder,
    contrast_bound_sweep,
    ignorance_region,
    intervention_mean_general,
    mcc_minimize,
    mu_delta,
    robustness_value,
    single_treatment_bias,
    worst_case_bias,
    worst_case_direction,
)

B_K4 = np.array([[2.0], [0.5], [-0.4], [0.2]])

# scalar confounding model embedded with a second, unloaded treatment
FM_SCALAR = FactorModel(
    b_hat=np.array([[2.0], [0.0]]),
    sigma2_t_given_u=1.0,
    m=1,
    singular_values=np.array([2.0]),
)
CC_SCALAR = conditional_confounder(FM_SCALAR)
E1 = Contrast.unit(2, 0)
E2 = Contrast.unit(2, 1)


def _random_cc(rng, k, m):
    coef = rng.normal(size=(m, k))
    raw = rng.normal(size=(m, m))
    sigma = raw @ raw.T / m + 0.2 * np.eye(m)
    # scale so unit-ball gamma constraints stay meaningful
    sigma /= np.linalg.eigvalsh(sigma).max() * 1.5
    return ConditionalConfounder(coef=coef, sigma_u_given_t=sigma)


def test_bias_closed_form_zero_gamma():
    spec = SensitivitySpec.from_gamma(np.zeros(1), CC_SCALAR.sigma_u_given_t)
    assert bias_closed_form(spec, CC_SCALAR, 1.0, E1) == 0.0


def test_bias_closed_form_scalar_value():
    spec = SensitivitySpec.from_r2_direction(
        0.5, np.array([1.0]), CC_SCALAR.sigma_u_given_t
    )
    bias = bias_closed_form(spec, CC_SCALAR, 1.0, E1)
    assert bias == pytest.approx(math.sqrt(0.4), abs=1e-12)


def test_bias_closed_form_null_contrast():
    spec = SensitivitySpec.from_r2_direction(
        0.9, np.array([1.0]), CC_SCALAR.sigma_u_given_t
    )
    assert bias_closed_form(spec, CC_SCALAR, 1.0, E2) == pytest.approx(0.0, abs=1e-15)


def test_worst_case_bias_zero_r2():
    assert worst_case_bias(CC_SCALAR, 1.0, 0.0, E1) == 0.0


def test_worst_case_bias_scalar_value():
    bias = worst_case_bias(CC_SCALAR, 1.0, 1.0, E1)
    assert bias == pytest.approx(math.sqrt(0.8), abs=1e-12)
    half = worst_case_bias(CC_SCALAR, 1.0, 0.5, E1)
    assert half == pytest.approx(math.sqrt(0.4), abs=1e-12)


def test_worst_case_bias_rejects_bad_r2():
    with pytest.raises(CalibrationError):
        worst_case_bias(CC_SCALAR, 1.0, 1.5, E1)


def test_worst_case_bias_unbounded_outside_row_space():
    cc = ConditionalConfounder(
        coef=np.array([[1.0], [1.0]]),
        sigma_u_given_t=np.diag([1.0, 0.0]),
    )
    c = Contrast(np.array([1.0]), np.array([0.0]))
    assert worst_case_bias(cc, 1.0, 1.0, c) == math.inf


def test_worst_case_bias_pseudo_inverse_inside_row_space():
    cc = ConditionalConfounder(
        coef=np.array([[1.0], [0.0]]),
        sigma_u_given_t=np.diag([1.0, 0.0]),
    )
    c = Contrast(np.array([1.0]), np.array([0.0]))
    assert worst_case_bias(cc, 1.0, 1.0, c) == pytest.approx(1.0, abs=1e-12)


def test_near_singular_sigma_gets_one_verdict():
    # the second eigenvalue sits below RANK_RTOL * lambda_max, so Sigma has
    # rank 1 for the bound, the MCC solver and the general estimator alike
    cc = ConditionalConfounder(coef=np.eye(2), sigma_u_given_t=np.diag([0.5, 1e-11]))
    assert cc.rank == 1
    c = Contrast(np.array([1.0, 1.0]), np.zeros(2))
    assert worst_case_bias(cc, 1.0, 0.5, c) == math.inf
    bank = ContrastBank(
        deltas=mu_delta(cc, c)[None, :],
        naive=np.array([1.0]),
        sigma_y_given_t=1.0,
        sigma_u_given_t=cc.sigma_u_given_t,
    )
    with pytest.raises(DegenerateModelError):
        mcc_minimize(bank, norm="l2", r2_cap=0.5)
    outcome = GaussianOutcome(
        tau_naive=np.array([1.0, 0.5]), intercept=0.0, sigma2_y_given_t=1.0
    )
    observed = TreatmentMatrix(np.random.default_rng(0).normal(size=(20, 2)))
    with pytest.raises(InvalidCopulaError):
        intervention_mean_general(
            c.t1, CopulaSpec("gaussian", gamma=np.zeros(2)), cc, outcome, observed,
            m_draws=10, n_draws=2,
        )


def test_worst_case_direction_scalar_sign():
    d = worst_case_direction(CC_SCALAR, E1)
    assert d.defined
    assert d.direction == pytest.approx(np.array([1.0]), abs=1e-12)
    flipped = worst_case_direction(CC_SCALAR, Contrast(np.zeros(2), np.eye(2)[0]))
    assert flipped.direction == pytest.approx(np.array([-1.0]), abs=1e-12)


def test_worst_case_direction_two_dim_value():
    cc = ConditionalConfounder(coef=np.eye(2), sigma_u_given_t=np.diag([0.5, 0.1]))
    c = Contrast(np.array([1.0, 1.0]), np.zeros(2))
    d = worst_case_direction(cc, c)
    assert d.defined
    expected = np.array([1.0 / math.sqrt(0.5), 1.0 / math.sqrt(0.1)])
    expected /= np.linalg.norm(expected)
    assert d.direction == pytest.approx(expected, abs=1e-10)
    assert d.direction == pytest.approx(np.array([0.40824829, 0.91287093]), abs=1e-6)


def test_worst_case_direction_undefined_for_null_contrast():
    d = worst_case_direction(CC_SCALAR, E2)
    assert not d.defined
    assert np.allclose(d.direction, 0.0)


def test_worst_case_direction_attains_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = rng.integers(2, 8)
        m = rng.integers(1, min(k, 4))
        cc = _random_cc(rng, k, m)
        delta = rng.normal(size=k)
        c = Contrast(delta, np.zeros(k))
        d = worst_case_direction(cc, c)
        if not d.defined:
            continue
        r2 = float(rng.uniform(0.1, 1.0))
        spec = SensitivitySpec.from_r2_direction(r2, d.direction, cc.sigma_u_given_t)
        achieved = bias_closed_form(spec, cc, 1.3, c)
        bound = worst_case_bias(cc, 1.3, r2, c)
        assert achieved == pytest.approx(bound, rel=1e-10)


def test_ignorance_region_zero_cap_degenerate():
    region = ignorance_region(1.0, CC_SCALAR, 1.0, 0.0, E1)
    assert region.lower == region.upper == region.naive == 1.0
    assert region.width() == 0.0
    assert region.bounded


def test_ignorance_region_scalar_endpoints():
    region = ignorance_region(1.0, CC_SCALAR, 1.0, 1.0, E1)
    assert region.lower == pytest.approx(1.0 - math.sqrt(0.8), abs=1e-9)
    assert region.upper == pytest.approx(1.0 + math.sqrt(0.8), abs=1e-9)
    assert region.lower == pytest.approx(0.10557280900008412, abs=1e-9)
    assert region.upper == pytest.approx(1.8944271909999159, abs=1e-9)
    assert region.contains(1.0)
    assert not region.contains(region.upper + 1e-6)


def test_ignorance_region_unbounded_flags():
    cc = ConditionalConfounder(
        coef=np.array([[1.0], [1.0]]),
        sigma_u_given_t=np.diag([1.0, 0.0]),
    )
    region = ignorance_region(2.0, cc, 1.0, 0.5, Contrast(np.ones(1), np.zeros(1)))
    assert not region.bounded
    assert region.lower == -math.inf and region.upper == math.inf
    assert "row space" in region.reason
    assert region.contains(123.0)


def test_ignorance_region_nesting():
    inner = ignorance_region(0.4, CC_SCALAR, 1.2, 0.3, E1)
    outer = ignorance_region(0.4, CC_SCALAR, 1.2, 0.7, E1)
    assert outer.lower <= inner.lower <= inner.upper <= outer.upper
    assert inner.width() < outer.width()


def test_ignorance_region_validation():
    with pytest.raises(CalibrationError):
        IgnoranceRegion(naive=0.0, lower=-1.0, upper=1.0, r2_cap=2.0, bounded=True)
    with pytest.raises(ValueError):
        IgnoranceRegion(naive=5.0, lower=-1.0, upper=1.0, r2_cap=0.5, bounded=True)
    with pytest.raises(ValueError):
        IgnoranceRegion(naive=0.0, lower=-1.0, upper=math.inf, r2_cap=0.5, bounded=False)
    with pytest.raises(InputFormatError, match="does not contain"):
        IgnoranceRegion(naive=5.0, lower=-1.0, upper=1.0, r2_cap=0.5, bounded=True)
    with pytest.raises(InputFormatError, match="infinite endpoints"):
        IgnoranceRegion(naive=0.0, lower=-1.0, upper=math.inf, r2_cap=0.5, bounded=False)


def test_contrast_bound_sweep_k4_value():
    fm = FactorModel(
        b_hat=B_K4,
        sigma2_t_given_u=1.0,
        m=1,
        singular_values=np.array([float(np.linalg.norm(B_K4))]),
    )
    sweep = contrast_bound_sweep(fm, 1.0, 1.0)
    assert sweep.max_bias == pytest.approx(0.9036115102564205, abs=1e-12)
    expected_argmax = B_K4[:, 0] / np.linalg.norm(B_K4)
    assert sweep.argmax_delta == pytest.approx(expected_argmax, abs=1e-10)


def test_contrast_bound_sweep_zero_loadings():
    fm = FactorModel(
        b_hat=np.zeros((3, 1)),
        sigma2_t_given_u=2.0,
        m=1,
        singular_values=np.zeros(1),
    )
    sweep = contrast_bound_sweep(fm, 1.0, 0.8)
    assert sweep.max_bias == 0.0
    assert np.allclose(sweep.argmax_delta, 0.0)


def test_contrast_bound_sweep_argmax_attains():
    rng = np.random.default_rng(11)
    b = rng.normal(size=(6, 2))
    fm = FactorModel(
        b_hat=b,
        sigma2_t_given_u=0.7,
        m=2,
        singular_values=np.linalg.svd(b, compute_uv=False),
    )
    cc = conditional_confounder(fm)
    sigma_y = 1.4
    sweep = contrast_bound_sweep(fm, sigma_y, 0.6)
    c = Contrast(sweep.argmax_delta, np.zeros(6))
    attained = worst_case_bias(cc, sigma_y, 0.6, c)
    assert attained == pytest.approx(sweep.max_bias, rel=1e-10)
    # no other random unit contrast beats it
    for _ in range(200):
        delta = rng.normal(size=6)
        delta /= np.linalg.norm(delta)
        other = worst_case_bias(cc, sigma_y, 0.6, Contrast(delta, np.zeros(6)))
        assert other <= sweep.max_bias * (1 + 1e-9)


def test_contrast_bound_sweep_null_space():
    fm = FactorModel(
        b_hat=B_K4,
        sigma2_t_given_u=1.0,
        m=1,
        singular_values=np.array([float(np.linalg.norm(B_K4))]),
    )
    cc = conditional_confounder(fm)
    sweep = contrast_bound_sweep(fm, 1.0, 1.0)
    basis = sweep.null_space_basis
    assert basis.shape == (4, 3)
    assert np.allclose(B_K4.T @ basis, 0.0, atol=1e-12)
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
    for j in range(basis.shape[1]):
        c = Contrast(basis[:, j], np.zeros(4))
        assert worst_case_bias(cc, 1.0, 1.0, c) == pytest.approx(0.0, abs=1e-10)


def test_robustness_value_zero_naive():
    rv = robustness_value(0.0, CC_SCALAR, 1.0, E1)
    assert rv == (0.0, False)


def test_robustness_value_quarter():
    rv = robustness_value(math.sqrt(0.2), CC_SCALAR, 1.0, E1)
    assert rv.value == pytest.approx(0.25, abs=1e-12)
    assert not rv.robust


def test_robustness_value_region_touches_zero():
    naive = math.sqrt(0.2)
    rv = robustness_value(naive, CC_SCALAR, 1.0, E1)
    region = ignorance_region(naive, CC_SCALAR, 1.0, rv.value, E1)
    assert min(abs(region.lower), abs(region.upper)) == pytest.approx(0.0, abs=1e-9)


def test_robustness_value_clips_to_one():
    rv = robustness_value(2.0, CC_SCALAR, 1.0, E1)
    assert rv == (1.0, True)


def test_robustness_value_identified_contrast():
    rv = robustness_value(0.7, CC_SCALAR, 1.0, E2)
    assert rv == (1.0, True)


def test_robustness_value_unbounded_bias():
    cc = ConditionalConfounder(
        coef=np.array([[1.0], [1.0]]),
        sigma_u_given_t=np.diag([1.0, 0.0]),
    )
    rv = robustness_value(0.9, cc, 1.0, Contrast(np.ones(1), np.zeros(1)))
    assert rv == (0.0, False)


def test_single_treatment_bias_values():
    assert single_treatment_bias(0.0, 0.5, 1.0, 1.0) == 0.0
    assert single_treatment_bias(0.5, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert single_treatment_bias(1.0, 0.5, 1.0, 1.0) == math.inf


def test_single_treatment_bias_pole():
    vals = [single_treatment_bias(r, 1.0, 1.0, 1.0) for r in (0.9, 0.99, 0.999)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 30.0


def test_single_treatment_bias_domain():
    with pytest.raises(CalibrationError):
        single_treatment_bias(-0.1, 0.5, 1.0, 1.0)
    with pytest.raises(CalibrationError):
        single_treatment_bias(0.5, 1.1, 1.0, 1.0)
    with pytest.raises(DegenerateModelError):
        single_treatment_bias(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(DegenerateModelError):
        single_treatment_bias(0.5, 0.5, 1.0, -2.0)


@settings(max_examples=40, deadline=None)
@given(
    r2a=st.floats(min_value=0.0, max_value=1.0),
    r2b=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=100),
)
def test_worst_case_bias_monotone_in_r2(r2a, r2b, seed):
    rng = np.random.default_rng(seed)
    cc = _random_cc(rng, 5, 2)
    c = Contrast(rng.normal(size=5), rng.normal(size=5))
    lo, hi = sorted((r2a, r2b))
    assert worst_case_bias(cc, 1.0, lo, c) <= worst_case_bias(cc, 1.0, hi, c) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_bound_and_rv_reparameterization_invariant(seed):
    rng = np.random.default_rng(seed)
    cc = _random_cc(rng, 6, 3)
    raw = rng.normal(size=(3, 3))
    a = raw @ raw.T + 0.3 * np.eye(3)
    cc2 = cc.reparameterized(a)
    c = Contrast(rng.normal(size=6), rng.normal(size=6))
    b1 = worst_case_bias(cc, 1.1, 0.7, c)
    b2 = worst_case_bias(cc2, 1.1, 0.7, c)
    assert b2 == pytest.approx(b1, rel=1e-8)
    rv1 = robustness_value(0.8, cc, 1.1, c)
    rv2 = robustness_value(0.8, cc2, 1.1, c)
    assert rv2.value == pytest.approx(rv1.value, rel=1e-8)
    assert rv1.robust == rv2.robust
