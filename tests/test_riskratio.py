import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize
from scipy.special import ndtr
from scipy.stats import norm

from mtsens import (
    BinaryOutcome,
    CalibrationError,
    ConditionalConfounder,
    Contrast,
    DegenerateModelError,
    DimensionError,
    InputFormatError,
    MtsensError,
    SensitivitySpec,
    TreatmentMatrix,
    binary_rv,
    conditional_confounder,
    fit_ppca,
    fit_probit,
    gen_gwas,
    marginal_contrast,
    rr_contrast,
    rr_curve,
    rr_ignorance_region,
    rr_single,
)
from mtsens.calibrate import gamma_from_signed_r2
from mtsens import riskratio
from mtsens.riskratio import _N_POLISH, _ball_extremes, _restarts, _RrEvaluator

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


def _rr_curve_per_point(c, cc, bo, observed, direction, grid):
    """rr_curve through one gamma_from_signed_r2 spec per grid point."""
    specs = [gamma_from_signed_r2(s, direction, cc.sigma_u_given_t) for s in grid]
    z = np.array([math.sqrt(sp.r2) * sp.direction for sp in specs])
    return list(zip(grid, _RrEvaluator(c, cc, bo, observed).rr(z).tolist()))


def _raised(fn):
    try:
        fn()
    except MtsensError as exc:
        return type(exc)
    return None


def test_rr_curve_equals_per_point_specs():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(3, 3))
    cc = ConditionalConfounder(
        coef=rng.normal(size=(3, 6)), sigma_u_given_t=a @ a.T + 0.3 * np.eye(3)
    )
    observed = TreatmentMatrix(rng.normal(size=(80, 6)))
    bo = BinaryOutcome(probit_coef=0.4 * rng.normal(size=6), probit_intercept=0.1, p_y1=0.5)
    c = Contrast(rng.normal(size=6), np.zeros(6))
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    grid = np.linspace(-1.0, 1.0, 201).tolist()
    assert rr_curve(c, cc, bo, observed, d) == _rr_curve_per_point(c, cc, bo, observed, d, grid)
    grid = [0.0, -0.0, 0.3, -1.0 - 1e-10, 1.0]
    assert rr_curve(c, cc, bo, observed, d, grid) == _rr_curve_per_point(
        c, cc, bo, observed, d, grid
    )
    # the same error as the per-point loop raises first
    singular = ConditionalConfounder(coef=np.eye(2), sigma_u_given_t=np.diag([1.0, 0.0]))
    obs2 = TreatmentMatrix(rng.normal(size=(30, 2)))
    bo2 = BinaryOutcome(probit_coef=np.array([0.5, 0.8]), probit_intercept=0.0, p_y1=0.5)
    c2 = Contrast(np.array([0.0, 1.0]), np.zeros(2))
    cases = [
        (cc, observed, bo, c, d, [0.2, 1.5, -0.4], CalibrationError),
        (cc, observed, bo, c, 1.1 * d, [0.0, -0.5], CalibrationError),
        (singular, obs2, bo2, c2, np.array([0.0, 1.0]), [0.0, 0.5], DegenerateModelError),
        (singular, obs2, bo2, c2, np.array([0.0, 1.0]), [0.5, 2.0], DegenerateModelError),
        (singular, obs2, bo2, c2, np.array([0.0, 1.0]), [2.0, 0.5], CalibrationError),
        (singular, obs2, bo2, c2, np.array([0.0, 1.0]), [0.0, 0.0], None),
    ]
    for cc_i, obs_i, bo_i, c_i, d_i, grid, expected in cases:
        assert _raised(lambda: _rr_curve_per_point(c_i, cc_i, bo_i, obs_i, d_i, grid)) is expected
        assert _raised(lambda: rr_curve(c_i, cc_i, bo_i, obs_i, d_i, grid)) is expected


def test_rr_region_cap_validation():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(CalibrationError):
        rr_ignorance_region(c, CC_1D, bo, TWO_POINT, 1.2)


def test_rr_region_n_restarts_validation():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    for bad in (-1, 2.5):
        with pytest.raises(InputFormatError):
            rr_ignorance_region(c, CC_1D, bo, TWO_POINT, 0.5, n_restarts=bad)
    # no restarts: both polishes start from the centre, and on this symmetric
    # design they reach the closed-form ends gamma = -+1 of the interval
    region = rr_ignorance_region(c, CC_1D, bo, TWO_POINT, 0.5, n_restarts=0)
    ends = [rr_contrast(c, _spec(g), CC_1D, bo, TWO_POINT) for g in (-1.0, 1.0)]
    assert region.lower == pytest.approx(min(ends), rel=1e-12)
    assert region.upper == pytest.approx(max(ends), rel=1e-12)


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


def test_wrong_dimensions_raise_dimension_error():
    bo = _binout(0.8)
    c = Contrast(np.array([1.0]), np.array([-1.0]))
    wide = TreatmentMatrix(np.array([[1.0, 0.0], [-1.0, 0.5]]))
    c2 = Contrast(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    bo2 = BinaryOutcome(probit_coef=np.array([0.8, 0.1]), probit_intercept=0.0, p_y1=0.5)
    for contrast, observed, outcome in ((c, wide, bo), (c2, TWO_POINT, bo),
                                        (c, TWO_POINT, bo2)):
        with pytest.raises(DimensionError):
            rr_curve(contrast, CC_1D, outcome, observed, np.array([1.0]), [0.5])
        with pytest.raises(DimensionError):
            rr_ignorance_region(contrast, CC_1D, outcome, observed, 0.5)
        with pytest.raises(DimensionError):
            binary_rv(contrast, CC_1D, outcome, observed)
        with pytest.raises(DimensionError):
            rr_contrast(contrast, _spec(0.3), CC_1D, outcome, observed)
    with pytest.raises(DimensionError):
        rr_single(np.array([1.0, 0.0]), _spec(0.3), CC_1D, bo, TWO_POINT)
    # a sensitivity vector or sweep direction of the wrong confounder dimension
    spec2 = SensitivitySpec.from_gamma(np.array([0.1, 0.1]), 0.5 * np.eye(2))
    with pytest.raises(DimensionError):
        rr_single(np.array([1.0]), spec2, CC_1D, bo, TWO_POINT)
    with pytest.raises(DimensionError):
        rr_contrast(c, spec2, CC_1D, bo, TWO_POINT)
    with pytest.raises(DimensionError):
        rr_curve(c, CC_1D, bo, TWO_POINT, np.array([0.6, 0.8]), [0.5])
    # a signed-r2 grid that is a scalar or a matrix
    for grid in (0.5, [[-0.5, 0.5]]):
        with pytest.raises(DimensionError):
            rr_curve(c, CC_1D, bo, TWO_POINT, np.array([1.0]), grid)


def _random_model(seed, m, k, n):
    """coef m x k, n observed rows and Sigma with eigenvalues in (0.1, 0.9)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    sigma = (q * rng.uniform(0.1, 0.9, size=m)) @ q.T
    cc = ConditionalConfounder(
        coef=rng.normal(size=(m, k)), sigma_u_given_t=0.5 * (sigma + sigma.T)
    )
    observed = TreatmentMatrix(rng.normal(size=(n, k)))
    bo = BinaryOutcome(
        probit_coef=rng.normal(size=k),
        probit_intercept=float(rng.normal(scale=0.5)),
        p_y1=0.5,
    )
    return cc, observed, bo, rng


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 4),
    k=st.integers(1, 5),
    n=st.integers(2, 50),
)
def test_evaluator_gradient_batch_and_gamma_coordinates(seed, m, k, n):
    cc, observed, bo, rng = _random_model(seed, m, k, n)
    c = Contrast(rng.normal(size=k), rng.normal(size=k))
    ev = _RrEvaluator(c, cc, bo, observed)
    z = rng.normal(size=(6, m))
    z *= (rng.uniform(size=(6, 1)) / np.linalg.norm(z, axis=1, keepdims=True))
    batch = ev.rr(z)
    h = 1e-6
    for zi, bi in zip(z, batch):
        value, grad, hess = ev.rr_grad_hess(zi)
        assert bi == pytest.approx(ev.rr(zi)[0], rel=1e-12)
        assert bi == pytest.approx(value, rel=1e-12)
        fd = np.array([(ev.rr(zi + h * e)[0] - ev.rr(zi - h * e)[0]) / (2 * h)
                       for e in np.eye(m)])
        assert np.linalg.norm(grad - fd) <= 1e-6 * (np.linalg.norm(grad) + value)
        # the Hessian against central differences of the exact gradient
        fd_hess = np.array([(ev.rr_grad_hess(zi + h * e)[1] - ev.rr_grad_hess(zi - h * e)[1])
                            / (2 * h) for e in np.eye(m)])
        assert np.linalg.norm(hess - fd_hess) <= 1e-6 * (
            np.linalg.norm(hess) + np.linalg.norm(grad) + value)
        gamma = cc.roots.inv_root @ zi
        spec = SensitivitySpec.from_gamma(gamma, cc.sigma_u_given_t)
        assert rr_contrast(c, spec, cc, bo, observed) == pytest.approx(bi, rel=1e-12)


def _slsqp_extremes(ev, points, radius):
    """The SLSQP polish that the Newton polish replaced: from the best
    _N_POLISH restarts each way, the best of the polished points (pulled
    into the ball) and the first start."""
    ball = {"type": "ineq", "fun": lambda z: radius * radius - z @ z,
            "jac": lambda z: -2.0 * z}
    points = np.unique(points, axis=0)
    vals = ev.rr(points)
    order = np.argsort(vals)
    found = []
    for sign, starts in ((1.0, order[:_N_POLISH]), (-1.0, order[::-1][:_N_POLISH])):

        def objective(z, sign=sign):
            v, g, _ = ev.rr_grad_hess(z)
            return sign * v, sign * g

        best = vals[starts[0]]
        for i in starts:
            # SLSQP may step far outside the ball, where both means vanish
            with np.errstate(all="ignore"):
                res = minimize(objective, points[i], jac=True, method="SLSQP",
                               constraints=[ball], options={"ftol": 1e-12, "maxiter": 200})
            z = res.x * min(1.0, radius / max(np.linalg.norm(res.x), 1e-300))
            best = min(best, ev.rr(z)[0], key=lambda v: sign * v)
        found.append(float(best))
    return found


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 4),
    k=st.integers(1, 5),
    n=st.integers(2, 50),
    cap=st.floats(0.05, 1.0),
)
# rr is about 9.2e26 here, where the batched rr of the extremes and the
# single-point rr of the same point differed by 3.2e-14 relative
@example(seed=4, m=4, k=5, n=3, cap=0.984375)
def test_newton_extremes_match_slsqp_oracle(seed, m, k, n, cap):
    cc, observed, bo, rng = _random_model(seed, m, k, n)
    ev = _RrEvaluator(Contrast(rng.normal(size=k), rng.normal(size=k)), cc, bo, observed)
    radius = math.sqrt(cap)
    points = _restarts(m, radius, 200, seed)
    (lower, z_lo), (upper, z_hi), stable = _ball_extremes(ev, points, radius)
    oracle_lo, oracle_hi = _slsqp_extremes(ev, points, radius)
    assert stable
    assert lower <= oracle_lo + 1e-9 * abs(oracle_lo)
    assert upper >= oracle_hi - 1e-9 * abs(oracle_hi)
    # each value is rr at its returned point, which lies in the ball
    for value, z in ((lower, z_lo), (upper, z_hi)):
        assert np.linalg.norm(z) <= radius * (1 + 1e-12)
        assert ev.rr(z)[0] == pytest.approx(value, rel=1e-14)


def test_rr_region_slow_case_takes_few_newton_steps(monkeypatch):
    # SLSQP spent 2468 gradient calls on this region; the Newton polishes
    # need 33 Hessian evaluations in all
    sim = gen_gwas(n=500, k=20, m=3, seed=7)
    y = (sim.y > np.median(sim.y)).astype(float)
    cc = conditional_confounder(fit_ppca(sim.treatments, 3))
    bo = fit_probit(sim.treatments, y)
    calls = []
    rr_grad_hess = _RrEvaluator.rr_grad_hess
    monkeypatch.setattr(_RrEvaluator, "rr_grad_hess",
                        lambda self, x: calls.append(1) or rr_grad_hess(self, x))
    region = rr_ignorance_region(Contrast.unit(20, 0), cc, bo, sim.treatments, 0.5)
    assert region.lower == pytest.approx(0.8659028718712637, rel=1e-9)
    assert region.upper == pytest.approx(0.9999482013072781, rel=1e-9)
    assert len(calls) <= 100


def test_searches_leave_scipy_optimize_unloaded():
    # a fresh interpreter, because this one has loaded scipy.optimize
    package_root = str(Path(riskratio.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = """
import sys
import numpy as np
import mtsens
rng = np.random.default_rng(0)
cc = mtsens.ConditionalConfounder(coef=rng.normal(size=(2, 3)),
                                  sigma_u_given_t=np.diag([0.4, 0.3]))
observed = mtsens.TreatmentMatrix(rng.normal(size=(40, 3)))
bo = mtsens.BinaryOutcome(probit_coef=rng.normal(size=3), probit_intercept=0.1, p_y1=0.5)
c = mtsens.Contrast.unit(3, 0)
mtsens.rr_ignorance_region(c, cc, bo, observed, 0.5, n_restarts=20)
mtsens.binary_rv(c, cc, bo, observed)
print("scipy.optimize" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Seeds on which coordinate sweeps missed the polar-grid extremes and the
# bisection overstated the robustness value.
M2_SEEDS = (0, 2, 5)


class _PolarOracle:
    """rr on the whitened disc of a 2-d confounder, in gamma coordinates."""

    def __init__(self, cc, observed, bo, c):
        lam, vec = np.linalg.eigh(cc.sigma_u_given_t)
        self.inv_root = (vec / np.sqrt(lam)) @ vec.T
        self.s1 = (observed.data - c.t1) @ cc.coef.T
        self.s2 = (observed.data - c.t2) @ cc.coef.T
        self.e1 = bo.probit_intercept + c.t1 @ bo.probit_coef
        self.e2 = bo.probit_intercept + c.t2 @ bo.probit_coef

    def rr(self, z):
        gamma = np.atleast_2d(z) @ self.inv_root
        return (ndtr(self.e1 + self.s1 @ gamma.T).mean(0)
                / ndtr(self.e2 + self.s2 @ gamma.T).mean(0))

    def grid(self, radius, n=400):
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        unit = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        r = np.linspace(0.0, radius, n)
        return self.rr((r[:, None, None] * unit[None]).reshape(-1, 2))

    def crossing(self, theta, naive_side):
        """First radius in [0, 1] with rr = 1 along the ray at angle theta."""
        u = np.array([np.cos(theta), np.sin(theta)])
        r = np.linspace(0.0, 1.0, 400)
        side = np.sign(self.rr(r[:, None] * u) - 1.0)
        hit = np.flatnonzero(side[1:] != naive_side)
        if hit.size == 0:
            return math.inf
        j = hit[0] + 1
        return brentq(lambda x: self.rr(x * u)[0] - 1.0, r[j - 1], r[j], xtol=1e-15)

    def rv(self):
        """Smallest squared first-crossing radius over 400 angles, refined on
        400 more angles around the best one."""
        side = np.sign(self.rr(np.zeros(2))[0] - 1.0)
        theta = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
        radii = np.array([self.crossing(t, side) for t in theta])
        best = theta[np.argmin(radii)]
        fine = np.linspace(best - theta[1], best + theta[1], 401)
        return min(radii.min(), min(self.crossing(t, side) for t in fine)) ** 2


@pytest.mark.parametrize("seed", M2_SEEDS)
def test_rr_region_contains_polar_grid_m2(seed):
    cc, observed, bo, _ = _random_model(seed, 2, 3, 60)
    c = Contrast.unit(3, 0)
    vals = _PolarOracle(cc, observed, bo, c).grid(math.sqrt(0.5))
    region = rr_ignorance_region(c, cc, bo, observed, 0.5)
    assert region.lower <= vals.min() * (1 + 1e-9)
    assert region.upper >= vals.max() * (1 - 1e-9)
    # every reported value is attained inside the ball
    assert region.lower >= vals.min() * (1 - 1e-4)
    assert region.upper <= vals.max() * (1 + 1e-4)


@pytest.mark.parametrize("seed", M2_SEEDS)
def test_binary_rv_matches_ray_oracle_m2(seed):
    cc, observed, bo, _ = _random_model(seed, 2, 3, 60)
    c = Contrast.unit(3, 0)
    rv = binary_rv(c, cc, bo, observed)
    assert not rv.robust
    assert rv.value == pytest.approx(_PolarOracle(cc, observed, bo, c).rv(), abs=1e-6)
    # at R2 = RV the region just reaches rr = 1
    region = rr_ignorance_region(c, cc, bo, observed, rv.value)
    assert region.contains(1.0) or min(abs(region.lower - 1), abs(region.upper - 1)) < 1e-9


_CLAMPED = {
    "rr_single": lambda c, cc, bo, obs: rr_single(
        c.t1, SensitivitySpec.from_gamma(np.array([0.1]), cc.sigma_u_given_t), cc, bo, obs
    ),
    "rr_contrast": lambda c, cc, bo, obs: rr_contrast(
        c, SensitivitySpec.from_gamma(np.array([0.1]), cc.sigma_u_given_t), cc, bo, obs
    ),
    "rr_curve": lambda c, cc, bo, obs: rr_curve(c, cc, bo, obs, np.ones(1), [-0.5, 0.5]),
    "rr_ignorance_region": lambda c, cc, bo, obs: rr_ignorance_region(
        c, cc, bo, obs, 0.5, n_restarts=8
    ),
    "binary_rv": lambda c, cc, bo, obs: binary_rv(c, cc, bo, obs),
}


@pytest.mark.parametrize("entry", sorted(_CLAMPED))
def test_clamp_warning_names_the_caller(entry):
    # a probit coefficient of 40 puts P(Y=1 | do(e1)) at 1 to rounding
    cc = ConditionalConfounder(
        coef=np.array([[0.6, 0.2]]), sigma_u_given_t=np.array([[0.5]])
    )
    observed = TreatmentMatrix(np.random.default_rng(0).normal(size=(40, 2)))
    bo = BinaryOutcome(probit_coef=np.array([40.0, 0.0]), probit_intercept=0.0, p_y1=0.5)
    with pytest.warns(UserWarning, match="clamped") as record:
        _CLAMPED[entry](Contrast.unit(2, 0), cc, bo, observed)
    clamps = [w for w in record if "clamped" in str(w.message)]
    assert clamps and all(w.filename == __file__ for w in clamps)
