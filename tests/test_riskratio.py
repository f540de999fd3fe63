import math

import numpy as np
import pytest
from scipy.stats import norm

from mtsens import (
    BinaryOutcome,
    CalibrationError,
    ConditionalConfounder,
    Contrast,
    DegenerateModelError,
    SensitivitySpec,
    TreatmentMatrix,
    binary_rv,
    marginal_contrast,
    rr_contrast,
    rr_curve,
    rr_ignorance_region,
    rr_single,
)

CC_1D = ConditionalConfounder(
    coef=np.array([[1.0]]), sigma_u_given_t=np.array([[0.5]])
)
TWO_POINT = TreatmentMatrix(np.array([[1.0], [-1.0]]))


def _binout(b, p_y1=0.5):
    return BinaryOutcome(
        probit_coef=np.array([b]), probit_intercept=0.0, p_y1=p_y1
    )


def _spec(gamma):
    return SensitivitySpec.from_gamma(np.array([gamma]), CC_1D.sigma_u_given_t)


def test_rr_single_no_confounding():
    bo = _binout(0.8, p_y1=0.4)
    val = rr_single(np.array([1.0]), _spec(0.0), CC_1D, bo, TWO_POINT)
    assert val == pytest.approx(norm.cdf(0.8) / 0.4, abs=1e-12)


def test_rr_single_symmetric_shifts():
    # at t = 0 the two observed rows shift the probit index by +/- gamma,
    # so the numerator averages to exactly one half
    bo = _binout(0.8, p_y1=0.4)
    for g in (0.3, 0.9, -0.6):
        val = rr_single(np.array([0.0]), _spec(g), CC_1D, bo, TWO_POINT)
        assert val == pytest.approx(0.5 / 0.4, abs=1e-12)


def test_rr_contrast_identical_endpoints():
    bo = _binout(1.1)
    c = Contrast(np.array([0.7]), np.array([0.7]))
    assert rr_contrast(c, _spec(0.55), CC_1D, bo, TWO_POINT) == pytest.approx(
        1.0, abs=1e-15
    )


def test_rr_contrast_no_confounding_closed_form():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    val = rr_contrast(c, _spec(0.0), CC_1D, bo, TWO_POINT)
    assert val == pytest.approx(norm.cdf(0.8) / norm.cdf(-0.8), abs=1e-12)


def test_rr_contrast_p_y1_cancels():
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    spec = _spec(0.4)
    a = rr_contrast(c, spec, CC_1D, _binout(0.8, p_y1=0.2), TWO_POINT)
    b = rr_contrast(c, spec, CC_1D, _binout(0.8, p_y1=0.9), TWO_POINT)
    assert a == b
    s1 = rr_single(np.array([1.0]), spec, CC_1D, _binout(0.8, p_y1=0.2), TWO_POINT)
    s2 = rr_single(np.array([1.0]), spec, CC_1D, _binout(0.8, p_y1=0.9), TWO_POINT)
    assert s1 != s2


def test_rr_contrast_matches_monte_carlo_ratio():
    rng = np.random.default_rng(5)
    observed = TreatmentMatrix(rng.normal(size=(300, 1)))
    bo = _binout(0.7, p_y1=float(norm.cdf(0.0)))
    c = Contrast(np.array([0.8]), np.array([-0.2]))
    spec = _spec(0.5)
    closed = rr_contrast(c, spec, CC_1D, bo, observed)
    mc = marginal_contrast(
        c,
        spec,
        CC_1D,
        bo,
        observed,
        v=lambda y: (y >= 0.5).astype(float),
        tau_fn="ratio",
        n_sim=4000,
        seed=11,
        with_se=True,
    )
    assert abs(mc.value - closed) <= 3 * mc.se


def test_rr_curve_zero_point_is_naive():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    curve = rr_curve(c, CC_1D, bo, TWO_POINT, np.array([1.0]),
                     signed_r2_grid=[-0.5, 0.0, 0.5])
    naive = rr_contrast(c, _spec(0.0), CC_1D, bo, TWO_POINT)
    assert curve[1][0] == 0.0
    assert curve[1][1] == pytest.approx(naive, abs=1e-12)


def test_rr_curve_direction_sign_symmetry():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    grid = np.linspace(-0.8, 0.8, 9)
    plus = rr_curve(c, CC_1D, bo, TWO_POINT, np.array([1.0]), signed_r2_grid=grid)
    minus = rr_curve(c, CC_1D, bo, TWO_POINT, np.array([-1.0]), signed_r2_grid=grid)
    for (s_p, v_p), (s_m, v_m) in zip(plus, reversed(minus)):
        assert s_p == pytest.approx(-s_m, abs=1e-12)
        assert v_p == pytest.approx(v_m, abs=1e-12)


def test_rr_region_zero_cap():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    region = rr_ignorance_region(c, CC_1D, bo, TWO_POINT, 0.0)
    assert region.lower == region.upper == region.naive
    assert region.bounded


def test_rr_region_contains_curve():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    region = rr_ignorance_region(c, CC_1D, bo, TWO_POINT, 0.6)
    curve = rr_curve(c, CC_1D, bo, TWO_POINT, np.array([1.0]),
                     signed_r2_grid=np.linspace(-0.6, 0.6, 41))
    for _, val in curve:
        assert region.lower - 1e-10 <= val <= region.upper + 1e-10
    assert region.contains(region.naive)


def test_rr_region_matches_dense_grid_m1():
    rng = np.random.default_rng(9)
    observed = TreatmentMatrix(rng.normal(size=(40, 1)))
    bo = _binout(0.9)
    c = Contrast(np.array([1.2]), np.array([-0.3]))
    cap = 0.5
    region = rr_ignorance_region(c, CC_1D, bo, observed, cap)
    half = math.sqrt(cap / 0.5)
    gammas = np.linspace(-half, half, 10001)
    vals = []
    for g in gammas:
        vals.append(rr_contrast(c, _spec(g), CC_1D, bo, observed))
    vals = np.array(vals)
    assert region.lower == pytest.approx(float(vals.min()), abs=1e-4)
    assert region.upper == pytest.approx(float(vals.max()), abs=1e-4)
    assert region.lower <= vals.min() + 1e-10
    assert region.upper >= vals.max() - 1e-10


def test_rr_region_nesting_m2():
    rng = np.random.default_rng(13)
    cc = ConditionalConfounder(
        coef=np.array([[0.8, 0.1], [-0.2, 0.6]]),
        sigma_u_given_t=np.array([[0.4, 0.05], [0.05, 0.3]]),
    )
    observed = TreatmentMatrix(rng.normal(size=(25, 2)))
    bo = BinaryOutcome(
        probit_coef=np.array([0.7, -0.4]), probit_intercept=0.1, p_y1=0.5
    )
    c = Contrast(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    small = rr_ignorance_region(c, cc, bo, observed, 0.2, n_restarts=40, seed=1)
    large = rr_ignorance_region(c, cc, bo, observed, 0.6, n_restarts=40, seed=1)
    assert large.lower <= small.lower + 1e-6
    assert large.upper >= small.upper - 1e-6
    assert small.contains(small.naive)


def test_singular_sigma_is_refused_by_the_searches():
    # gamma = (0, g) has zero R2 under Sigma = diag(1, 0) for every g, yet
    # it shifts the probit index of the contrast e2 vs 0
    cc = ConditionalConfounder(coef=np.eye(2), sigma_u_given_t=np.diag([1.0, 0.0]))
    observed = TreatmentMatrix(np.random.default_rng(3).normal(size=(30, 2)))
    bo = BinaryOutcome(probit_coef=np.array([0.5, 0.8]), probit_intercept=0.0, p_y1=0.5)
    c = Contrast(np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(DegenerateModelError):
        rr_ignorance_region(c, cc, bo, observed, 0.5, n_restarts=10)
    with pytest.raises(DegenerateModelError):
        binary_rv(c, cc, bo, observed)
    with pytest.raises(DegenerateModelError):
        rr_curve(c, cc, bo, observed, np.array([0.0, 1.0]), signed_r2_grid=[0.5])
    # a sweep along a direction inside the row space stays well defined
    curve = rr_curve(c, cc, bo, observed, np.array([1.0, 0.0]), signed_r2_grid=[0.0])
    naive = rr_contrast(
        c, SensitivitySpec.from_gamma(np.zeros(2), cc.sigma_u_given_t), cc, bo, observed
    )
    assert curve[0][1] == pytest.approx(naive, abs=1e-12)
    # a scalar confounder with zero variance gets the same typed error
    cc0 = ConditionalConfounder(coef=np.array([[1.0]]), sigma_u_given_t=np.zeros((1, 1)))
    c1 = Contrast(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(DegenerateModelError):
        rr_ignorance_region(c1, cc0, _binout(0.8), TWO_POINT, 0.5)
    with pytest.raises(DegenerateModelError):
        binary_rv(c1, cc0, _binout(0.8), TWO_POINT)


def test_rr_region_cap_validation():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(CalibrationError):
        rr_ignorance_region(c, CC_1D, bo, TWO_POINT, 1.2)


def test_binary_rv_unit_naive():
    bo = _binout(0.9)
    c = Contrast(np.array([0.4]), np.array([0.4]))
    rv = binary_rv(c, CC_1D, bo, TWO_POINT)
    assert rv == (0.0, False)


def test_binary_rv_analytic_crossing():
    # with intercept 0 and observed rows {+1, -1}, rr(t=+1 vs t=-1) = 1
    # exactly at gamma = b, so the robustness value is b^2 * Sigma
    b = 0.8
    bo = _binout(b)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    rv = binary_rv(c, CC_1D, bo, TWO_POINT)
    assert not rv.robust
    assert rv.value == pytest.approx(b * b * 0.5, abs=1e-6)


def test_binary_rv_robust_case():
    # the crossing at gamma = 1.5 lies outside the admissible interval
    # |gamma| <= sqrt(1/0.5), so no cap can drive the risk ratio to 1
    bo = _binout(1.5)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    rv = binary_rv(c, CC_1D, bo, TWO_POINT)
    assert rv == (1.0, True)
