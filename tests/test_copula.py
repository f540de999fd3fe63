import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from mtsens import (
    BinaryOutcome,
    CalibrationError,
    ConditionalConfounder,
    Contrast,
    ContrastBank,
    CopulaSpec,
    DegenerateModelError,
    DimensionError,
    EmpiricalOutcome,
    FactorModel,
    GaussianOutcome,
    InputFormatError,
    InvalidCopulaError,
    SensitivitySpec,
    TreatmentMatrix,
    bias_closed_form,
    conditional_cdf_quantile,
    conditional_confounder,
    degaussianize,
    gaussian_copula_density,
    gaussianize,
    gen_linear_gaussian,
    ignorance_region,
    intervention_mean_gaussian,
    intervention_mean_general,
    marginal_contrast,
    mcc_minimize,
    naive_closed_form,
    robustness_value,
    rr_contrast,
    rr_curve,
    SimTruth,
    worst_case_bias,
)
from mtsens import copula as copula_module
from mtsens.copula import CDF_CLAMP

B_K4 = np.array([[2.0], [0.5], [-0.4], [0.2]])


def _linear_setup(n=600, seed=0):
    truth = SimTruth(
        b_true=B_K4,
        sigma2_t_given_u=1.0,
        sigma2_y_given_tu=1.0,
        gamma_true=np.array([2.8]),
        tau_true=np.ones(4),
        seed=seed,
    )
    data = gen_linear_gaussian(truth, n)
    cc = truth.confounder()
    sigma2_y_t = float(
        truth.gamma_true @ cc.sigma_u_given_t @ truth.gamma_true
        + truth.sigma2_y_given_tu
    )
    outcome = GaussianOutcome(
        tau_naive=naive_closed_form(truth), intercept=0.0, sigma2_y_given_t=sigma2_y_t
    )
    return truth, data, cc, outcome


def test_density_is_one_under_independence():
    sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
    gamma = np.zeros(2)
    val = gaussian_copula_density(gamma, sigma, 0.3, np.array([0.8, 0.2]))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_density_origin_value():
    # m=1 with unit conditional variance: correlation rho = gamma, and the
    # bivariate Gaussian copula density at the median is 1/sqrt(1-rho^2)
    val = gaussian_copula_density(
        np.array([0.6]), np.array([[1.0]]), 0.5, np.array([0.5])
    )
    assert val == pytest.approx(1.25, abs=1e-12)


def test_density_rejects_the_confounder_bounds():
    # q = 0 or 1 puts the confounder at infinity, where the density came out
    # as 0 for gamma != 0 but as nan for gamma = 0, where it is 1 inside
    p = np.array([0.1, 0.9])
    for gamma in (0.6, 0.0):
        for bound in (0.0, 1.0):
            with pytest.raises(InputFormatError, match="q must lie in the open interval"):
                gaussian_copula_density(
                    np.array([gamma]), np.array([[1.0]]), p, np.full((2, 1), bound))


@pytest.mark.parametrize(
    "p, q",
    [([1.0, 0.0, 1.5], [[0.7]] * 3), (1.0, [0.7]), (0.0, [0.7]), (1.5, [0.7]),
     (np.nan, [0.7]), (0.5, [1.3])],
    ids=["p-all", "p-one", "p-zero", "p-above", "p-nan", "q-above"],
)
def test_density_rejects_arguments_outside_the_open_interval(p, q):
    # a normal quantile is infinite at 0 and 1 and undefined outside [0, 1]:
    # p = [1, 0, 1.5] came out as [nan, 0, nan] with a RuntimeWarning
    with pytest.raises(InputFormatError, match="must lie in the open interval"):
        gaussian_copula_density(np.array([0.6]), np.array([[1.0]]), p, np.array(q))


def test_density_elliptical_symmetry():
    gamma = np.array([0.4])
    sigma = np.array([[0.7]])
    for p, q in [(0.3, 0.8), (0.05, 0.6), (0.9, 0.9)]:
        a = gaussian_copula_density(gamma, sigma, p, np.array([q]))
        b = gaussian_copula_density(gamma, sigma, 1 - p, np.array([1 - q]))
        assert a == pytest.approx(b, abs=1e-12)


def test_density_rejects_singular_correlation():
    with pytest.raises(InvalidCopulaError):
        gaussian_copula_density(
            np.array([1.0]), np.array([[1.0]]), 0.5, np.array([0.5])
        )


def test_spec_round_trip():
    sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
    d = np.array([3.0, -1.0])
    d = d / np.linalg.norm(d)
    spec = SensitivitySpec.from_r2_direction(0.36, d, sigma)
    assert spec.r2 == pytest.approx(0.36, abs=1e-12)
    back = SensitivitySpec.from_gamma(spec.gamma, sigma)
    assert back.r2 == pytest.approx(0.36, abs=1e-12)
    assert back.direction == pytest.approx(spec.direction, abs=1e-10)


def test_spec_rejects_non_unit_direction():
    with pytest.raises(CalibrationError):
        SensitivitySpec.from_r2_direction(
            0.5, np.array([1.0, 1.0]), np.eye(2)
        )


def test_spec_direction_outside_row_space_of_singular_sigma():
    # Sigma^{1/2} gamma always lies in the row space of Sigma, so no gamma
    # has a direction with a component along the null vector (0, 1)
    sigma = np.diag([1.0, 0.0])
    with pytest.raises(DegenerateModelError):
        SensitivitySpec.from_r2_direction(0.5, np.array([0.0, 1.0]), sigma)
    spec = SensitivitySpec.from_r2_direction(0.5, np.array([1.0, 0.0]), sigma)
    assert float(spec.gamma @ sigma @ spec.gamma) == pytest.approx(0.5, abs=1e-15)


def test_spec_rejects_excess_variance_share():
    with pytest.raises(CalibrationError):
        SensitivitySpec.from_gamma(np.array([1.5]), np.array([[1.0]]))


def test_zero_r2_gives_zero_gamma():
    spec = SensitivitySpec.from_r2_direction(
        0.0, np.array([1.0]), np.array([[0.3]])
    )
    assert np.allclose(spec.gamma, 0.0)


def test_intervention_mean_no_confounding_is_observed_mean():
    _, data, cc, outcome = _linear_setup()
    spec = SensitivitySpec.from_gamma(np.zeros(1), cc.sigma_u_given_t)
    t = np.array([0.5, 0.0, -0.5, 1.0])
    res = intervention_mean_gaussian(
        t, spec, cc, outcome, data.treatments, n_sim=400, seed=3, with_se=True
    )
    assert abs(res.value - outcome.mean(t)) <= 3 * res.se


def test_intervention_mean_matches_closed_form():
    _, data, cc, outcome = _linear_setup(seed=1)
    sigma = outcome.sigma()
    spec = SensitivitySpec.from_r2_direction(
        0.5, np.array([1.0]), cc.sigma_u_given_t
    )
    t = np.array([1.0, 0.0, 0.0, 0.0])
    mu_rows = cc.mu_u_given_t(data.treatments.data)
    closed = outcome.mean(t) - sigma * float(
        spec.gamma @ (cc.mu_u_given_t(t) - mu_rows.mean(axis=0))
    )
    res = intervention_mean_gaussian(
        t, spec, cc, outcome, data.treatments, n_sim=400, seed=5, with_se=True
    )
    assert abs(res.value - closed) <= 3 * res.se


def test_intervention_mean_indicator_functional():
    _, data, cc, outcome = _linear_setup(seed=2)
    spec = SensitivitySpec.from_gamma(np.zeros(1), cc.sigma_u_given_t)
    t = np.zeros(4)
    cut = 1.0
    expected = norm.cdf((cut - outcome.mean(t)) / outcome.sigma())
    res = intervention_mean_gaussian(
        t,
        spec,
        cc,
        outcome,
        data.treatments,
        v=lambda y: (y <= cut).astype(float),
        n_sim=600,
        seed=7,
        with_se=True,
    )
    assert abs(res.value - expected) <= 3 * max(res.se, 1e-4)


def test_intervention_mean_deterministic():
    _, data, cc, outcome = _linear_setup(seed=3)
    spec = SensitivitySpec.from_r2_direction(
        0.3, np.array([1.0]), cc.sigma_u_given_t
    )
    t = np.array([0.2, 0.2, 0.2, 0.2])
    a = intervention_mean_gaussian(t, spec, cc, outcome, data.treatments, seed=11)
    b = intervention_mean_gaussian(t, spec, cc, outcome, data.treatments, seed=11)
    assert a == b


def test_intervention_mean_equivalence_class_invariance():
    rng = np.random.default_rng(13)
    _, data, cc, outcome = _linear_setup(seed=4)
    spec = SensitivitySpec.from_r2_direction(
        0.4, np.array([1.0]), cc.sigma_u_given_t
    )
    t = np.array([1.0, -1.0, 0.5, 0.0])
    base = intervention_mean_gaussian(t, spec, cc, outcome, data.treatments, seed=17)
    a = np.array([[rng.uniform(0.5, 2.0)]])
    cc2 = cc.reparameterized(a)
    spec2 = spec.transformed(a, cc.sigma_u_given_t)
    moved = intervention_mean_gaussian(t, spec2, cc2, outcome, data.treatments, seed=17)
    assert moved == pytest.approx(base, rel=1e-9)


@st.composite
def _invertible_maps(draw):
    """An m x m map, m in {2, 3}, drawn as a rotation (the Q of a Gaussian
    matrix, signed to det 1) times a positive diagonal times a unit
    upper-triangular shear: every invertible map has this form up to signs."""
    m = draw(st.integers(min_value=2, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    rotation = q * np.sign(np.diag(r))
    rotation[:, 0] *= np.sign(np.linalg.det(rotation))
    scales = draw(st.lists(st.floats(min_value=0.2, max_value=5.0), min_size=m, max_size=m))
    shear = np.eye(m)
    shear[np.triu_indices(m, 1)] = draw(st.lists(
        st.floats(min_value=-3.0, max_value=3.0), min_size=m * (m - 1) // 2,
        max_size=m * (m - 1) // 2))
    return rotation @ np.diag(scales) @ shear


def _reparameterization_quantities(spec, cc, lin, probit, observed, c):
    """Every quantity that the coordinates of the confounder must not move."""
    naive = float(lin.mean(c.t1) - lin.mean(c.t2))
    sigma = lin.sigma()
    region = ignorance_region(naive, cc, sigma, 0.3, c)
    return [bias_closed_form(spec, cc, sigma, c), worst_case_bias(cc, sigma, 0.3, c),
            robustness_value(naive, cc, sigma, c).value, region.lower, region.upper,
            intervention_mean_gaussian(c.t1, spec, cc, lin, observed, n_sim=20, seed=5),
            rr_contrast(c, spec, cc, probit, observed)]


@settings(max_examples=60, deadline=None)
@given(_invertible_maps())
def test_every_quantity_is_invariant_under_an_invertible_map(a):
    # (coef, Sigma) -> (A coef, A Sigma A') with gamma -> A^-T gamma keeps
    # gamma' mu_u and gamma' Sigma gamma; a gamma mapped by A^-1 instead
    # moves the bias and the Monte Carlo and risk-ratio means for any A
    # that is not symmetric
    m, k = a.shape[0], 6
    rng = np.random.default_rng(m)
    root = rng.normal(size=(m, m))
    cc = ConditionalConfounder(coef=rng.normal(size=(m, k)),
                               sigma_u_given_t=0.2 * root @ root.T + 0.3 * np.eye(m))
    observed = TreatmentMatrix(rng.normal(size=(40, k)))
    lin = GaussianOutcome(tau_naive=rng.normal(size=k), intercept=0.3, sigma2_y_given_t=1.5)
    probit = BinaryOutcome(probit_coef=0.3 * rng.normal(size=k), probit_intercept=0.1,
                           p_y1=0.5)
    c = Contrast(rng.normal(size=k), rng.normal(size=k))
    direction = rng.normal(size=m)
    spec = SensitivitySpec.from_r2_direction(0.4, direction / np.linalg.norm(direction),
                                             cc.sigma_u_given_t)
    before = _reparameterization_quantities(spec, cc, lin, probit, observed, c)
    cc2 = cc.reparameterized(a)
    spec2 = spec.transformed(a, cc.sigma_u_given_t)
    after = _reparameterization_quantities(spec2, cc2, lin, probit, observed, c)
    assert after == pytest.approx(before, rel=1e-8, abs=1e-12)
    assert spec2.r2 == spec.r2
    # the direction is that of the new coordinates: from_gamma on A Sigma A'
    fresh = SensitivitySpec.from_gamma(spec2.gamma, cc2.sigma_u_given_t)
    assert spec2.direction == pytest.approx(fresh.direction, abs=1e-8)
    assert np.linalg.norm(spec2.direction) == pytest.approx(1.0, rel=1e-10)
    # a singular map is no change of coordinates, in either method
    singular = a.copy()
    singular[:, -1] = 0.0
    for bad in (singular, np.zeros((m, m))):
        with pytest.raises(DegenerateModelError, match="singular"):
            cc.reparameterized(bad)
        with pytest.raises(DegenerateModelError, match="singular"):
            spec.transformed(bad, cc.sigma_u_given_t)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_map_is_refused_in_both_methods(bad):
    _, _, cc, _ = _linear_setup(seed=4)
    spec = SensitivitySpec.from_r2_direction(0.4, np.array([1.0]), cc.sigma_u_given_t)
    a = np.array([[bad]])
    with pytest.raises(InputFormatError, match="a contains non-finite entries"):
        cc.reparameterized(a)
    with pytest.raises(InputFormatError, match="a contains non-finite entries"):
        spec.transformed(a, cc.sigma_u_given_t)


def test_mc_se_scales_with_sqrt_draws():
    _, data, cc, outcome = _linear_setup(n=200, seed=5)
    spec = SensitivitySpec.from_r2_direction(
        0.5, np.array([1.0]), cc.sigma_u_given_t
    )
    t = np.zeros(4)
    sizes = [100, 1000, 10000]
    ses = [
        intervention_mean_gaussian(
            t, spec, cc, outcome, data.treatments, n_sim=s, seed=19, with_se=True
        ).se
        for s in sizes
    ]
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_marginal_contrast_identical_endpoints():
    _, data, cc, outcome = _linear_setup(seed=6)
    spec = SensitivitySpec.from_r2_direction(
        0.7, np.array([1.0]), cc.sigma_u_given_t
    )
    c = Contrast(np.ones(4), np.ones(4))
    diff = marginal_contrast(c, spec, cc, outcome, data.treatments, seed=23)
    ratio = marginal_contrast(
        c, spec, cc, outcome, data.treatments, tau_fn="ratio", seed=23
    )
    assert diff == 0.0
    assert ratio == 1.0


def test_marginal_contrast_true_gamma_recovers_pate():
    truth, data, cc, outcome = _linear_setup(n=2000, seed=7)
    gamma_std = truth.gamma_true / outcome.sigma()
    spec = SensitivitySpec.from_gamma(gamma_std, cc.sigma_u_given_t)
    c = Contrast.unit(4, 0)
    res = marginal_contrast(
        c, spec, cc, outcome, data.treatments, n_sim=400, seed=29, with_se=True
    )
    assert abs(res.value - 1.0) <= 3 * res.se


@pytest.mark.parametrize("tau_fn", ["difference", "ratio"])
def test_marginal_contrast_equals_single_intervention_means(tau_fn):
    _, data, cc, outcome = _linear_setup(seed=8)
    spec = SensitivitySpec.from_r2_direction(0.6, np.array([1.0]), cc.sigma_u_given_t)
    c = Contrast(np.array([1.0, 0.5, 0.0, -0.5]), np.zeros(4))
    kwargs = dict(n_sim=50, seed=31, max_rows=250, with_se=True)
    res = marginal_contrast(c, spec, cc, outcome, data.treatments, tau_fn=tau_fn, **kwargs)
    a = intervention_mean_gaussian(c.t1, spec, cc, outcome, data.treatments, **kwargs)
    b = intervention_mean_gaussian(c.t2, spec, cc, outcome, data.treatments, **kwargs)
    if tau_fn == "difference":
        assert res.value == a.value - b.value
        assert res.se == float(np.hypot(a.se, b.se))
    else:
        assert res.value == a.value / b.value
        assert res.se == float(abs(res.value) * np.hypot(a.se / a.value, b.se / b.value))
    assert res.n_rows == a.n_rows == 250


def test_gaussian_outcome_far_from_the_rows_is_not_clamped():
    # every row's shift is about -12 here, beyond the |ytilde| <= 7.94 that
    # a Phi -> Phi^{-1} round trip keeps
    _, data, cc, outcome = _linear_setup(seed=1)
    spec = SensitivitySpec.from_r2_direction(0.5, np.array([1.0]), cc.sigma_u_given_t)
    t = np.array([20.0, 0.0, 0.0, 0.0])
    mu_rows = cc.mu_u_given_t(data.treatments.data)
    closed = outcome.mean(t) - outcome.sigma() * float(
        spec.gamma @ (cc.mu_u_given_t(t) - mu_rows.mean(axis=0))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = intervention_mean_gaussian(
            t, spec, cc, outcome, data.treatments, n_sim=400, seed=5, with_se=True
        )
    assert abs(res.value - closed) <= 3 * res.se


def test_marginal_contrast_warns_once_on_clamped_draws(monkeypatch):
    _, data, cc, outcome = _linear_setup(n=100, seed=14)
    emp = EmpiricalOutcome(
        mean_fn=outcome.mean,
        residual_quantiles=np.random.default_rng(0).normal(size=50),
        sigma2_y_given_t=1.0,
    )
    spec = SensitivitySpec.from_r2_direction(0.5, np.array([1.0]), cc.sigma_u_given_t)
    # 3 rows of 4 draws per block, a partial last block and two endpoints,
    # so the count must add up over all
    monkeypatch.setattr(copula_module, "_BLOCK_ENTRIES", 12)
    # every draw at t1 lies about 24 standard deviations below 0; none at t2
    c = Contrast(np.array([40.0, 0.0, 0.0, 0.0]), np.zeros(4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        marginal_contrast(c, spec, cc, emp, data.treatments, n_sim=4, seed=3)
    messages = [str(w.message) for w in caught]
    assert messages == ["400 of 800 copula draws hit the CDF clamping bounds; "
                        "tail behavior may be distorted"]
    assert caught[0].filename == __file__


def test_gaussian_path_memory_independent_of_rows():
    rng = np.random.default_rng(2)
    cc = ConditionalConfounder(
        coef=rng.normal(size=(3, 5)), sigma_u_given_t=np.eye(3), treatment_means=np.zeros(5)
    )
    outcome = GaussianOutcome(tau_naive=np.ones(5), intercept=0.0, sigma2_y_given_t=1.0)
    spec = SensitivitySpec.from_r2_direction(0.3, np.array([1.0, 0.0, 0.0]), np.eye(3))
    observed = TreatmentMatrix(rng.normal(size=(20000, 5)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        marginal_contrast(
            Contrast.unit(5, 0), spec, cc, outcome, observed, n_sim=200, seed=1, with_se=True
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_mc_sizes_and_tau_fn_are_typed_errors():
    _, data, cc, outcome = _linear_setup(n=50, seed=9)
    spec = SensitivitySpec.from_gamma(np.zeros(1), cc.sigma_u_given_t)
    c = Contrast.unit(4, 0)
    with pytest.raises(InputFormatError, match="n_sim"):
        intervention_mean_gaussian(c.t1, spec, cc, outcome, data.treatments, n_sim=0)
    with pytest.raises(InputFormatError, match="n_sim"):
        marginal_contrast(c, spec, cc, outcome, data.treatments, n_sim=0)
    with pytest.raises(InputFormatError, match="tau_fn"):
        marginal_contrast(c, spec, cc, outcome, data.treatments, tau_fn="odds")
    with pytest.raises(InputFormatError, match="max_rows"):
        marginal_contrast(c, spec, cc, outcome, data.treatments, max_rows=0)


def test_general_draw_counts_are_typed_errors():
    _, data, cc, outcome = _linear_setup(n=50, seed=9)
    copula = CopulaSpec("gaussian", gamma=np.zeros(1))
    for kwargs in (dict(m_draws=0), dict(n_draws=0)):
        with pytest.raises(InputFormatError, match="m_draws and n_draws"):
            intervention_mean_general(
                np.zeros(4), copula, cc, outcome, data.treatments, **kwargs
            )
    with pytest.raises(InputFormatError, match="max_rows"):
        intervention_mean_general(
            np.zeros(4), copula, cc, outcome, data.treatments, max_rows=0
        )


def test_general_estimator_independence_copula():
    _, data, cc, outcome = _linear_setup(n=300, seed=8)
    copula = CopulaSpec("gaussian", gamma=np.zeros(1))
    t = np.zeros(4)
    est = intervention_mean_general(
        t, copula, cc, outcome, data.treatments, m_draws=4000, n_draws=5, seed=31
    )
    se = outcome.sigma() / math.sqrt(4000)
    assert abs(est - outcome.mean(t)) <= 4 * se


def test_general_estimator_normalization():
    _, data, cc, outcome = _linear_setup(n=300, seed=9)
    spec = SensitivitySpec.from_r2_direction(
        0.5, np.array([1.0]), cc.sigma_u_given_t
    )
    copula = CopulaSpec("gaussian", gamma=spec.gamma)
    est = intervention_mean_general(
        np.zeros(4),
        copula,
        cc,
        outcome,
        data.treatments,
        v=lambda y: np.ones_like(y),
        m_draws=3000,
        n_draws=10,
        seed=37,
    )
    assert est == pytest.approx(1.0, abs=0.05)


def test_general_estimator_matches_gaussian_path():
    _, data, cc, outcome = _linear_setup(n=150, seed=10)
    spec = SensitivitySpec.from_r2_direction(
        0.1, np.array([1.0]), cc.sigma_u_given_t
    )
    t = np.array([0.3, 0.1, 0.0, 0.0])
    direct = intervention_mean_gaussian(
        t, spec, cc, outcome, data.treatments, n_sim=4000, seed=41, with_se=True
    )
    # the importance sampler is unbiased but heavy tailed, so compare its
    # replicate mean against the direct estimator with a combined SE
    reps = np.array([
        intervention_mean_general(
            t,
            CopulaSpec("gaussian", gamma=spec.gamma),
            cc,
            outcome,
            data.treatments,
            m_draws=8000,
            n_draws=10,
            seed=1000 + r,
        )
        for r in range(12)
    ])
    rep_se = reps.std(ddof=1) / math.sqrt(len(reps))
    combined = math.hypot(rep_se, direct.se)
    assert abs(reps.mean() - direct.value) <= 3 * combined


def test_custom_copula_density_accepted():
    spec_density = lambda p, q: np.ones(np.asarray(p).shape[0])
    copula = CopulaSpec("custom", density=spec_density)
    copula.validate(m=1)
    _, data, cc, outcome = _linear_setup(n=200, seed=11)
    est = intervention_mean_general(
        np.zeros(4), copula, cc, outcome, data.treatments, m_draws=2000, n_draws=5,
        seed=47,
    )
    se = outcome.sigma() / math.sqrt(2000)
    assert abs(est - outcome.mean(np.zeros(4))) <= 4 * se


def test_general_estimator_rejects_wrong_length_t():
    _, data, cc, outcome = _linear_setup(n=100, seed=13)
    copula = CopulaSpec("gaussian", gamma=np.zeros(1))
    for k in (cc.k - 1, cc.k + 1):
        with pytest.raises(DimensionError, match=f"t has length {k}, expected {cc.k}"):
            intervention_mean_general(
                np.zeros(k), copula, cc, outcome, data.treatments, m_draws=10, n_draws=2
            )


def test_general_estimator_warns_on_clamped_confounder_cdf(monkeypatch):
    _, data, cc, outcome = _linear_setup(n=100, seed=14)
    # 3 rows of 4 x 50 triples per block and a partial last block, so the
    # count must add up over all of them
    monkeypatch.setattr(copula_module, "_BLOCK_ENTRIES", 600)
    copula = CopulaSpec("gaussian", gamma=np.zeros(1))
    kwargs = dict(m_draws=50, n_draws=4, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        intervention_mean_general(np.zeros(4), copula, cc, outcome, data.treatments, **kwargs)
    assert not [w for w in caught if "clamping" in str(w.message)]
    # mu_{u|t} far from every row's confounder mean puts q at 0 or 1
    far = np.array([1e3, 0.0, 0.0, 0.0])
    custom = CopulaSpec("custom", density=_fgm_first)
    with pytest.warns(UserWarning, match="400 of 400 copula draws hit the CDF clamping bounds"):
        intervention_mean_general(far, custom, cc, outcome, data.treatments, **kwargs)
    # the Gaussian copula reads the standardized draws without a CDF
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        intervention_mean_general(far, copula, cc, outcome, data.treatments, **kwargs)


def _fgm_first(p, q):
    return 1.0 + 0.7 * (1.0 - 2.0 * p) * (1.0 - 2.0 * q[..., 0])


def _random_model(seed, n, k, m):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    cc = ConditionalConfounder(
        coef=rng.normal(size=(m, k)),
        sigma_u_given_t=a @ a.T + 0.5 * np.eye(m),
        treatment_means=rng.normal(size=k),
    )
    outcome = GaussianOutcome(
        tau_naive=rng.normal(size=k), intercept=3.0, sigma2_y_given_t=0.5
    )
    direction = rng.normal(size=m)
    spec = SensitivitySpec.from_r2_direction(
        float(rng.uniform(0.0, 0.8)), direction / np.linalg.norm(direction),
        cc.sigma_u_given_t,
    )
    return cc, outcome, spec, TreatmentMatrix(rng.normal(size=(n, k))), rng.normal(size=k)


def _general_reference(t, copula, cc, outcome, observed, m_draws, n_draws, seed):
    """The importance sampler on the whole repeat/tile product at once."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = observed.data
    n, m = rows.shape[0], cc.m
    p = rng.uniform(CDF_CLAMP, 1 - CDF_CLAMP, size=m_draws)
    y = conditional_cdf_quantile(outcome, t)[1](p)
    zu = rng.standard_normal(size=(n, n_draws, m))
    u = cc.mu_u_given_t(rows)[:, None, :] + zu @ cc.roots.root.T
    sd = np.sqrt(np.diag(cc.sigma_u_given_t))
    z = (u.reshape(n * n_draws, m) - cc.mu_u_given_t(t)) / sd
    pp = np.repeat(p, n * n_draws)
    if copula.kind == "gaussian":
        # f(ytilde | u) / f(ytilde) at the unclamped z: ytilde | u is
        # N(gamma'(u - mu_{u|t}), 1 - gamma' Sigma gamma)
        gamma = copula.gamma
        z_y = norm.ppf(pp)
        cond_mean = np.tile(z * sd, (m_draws, 1)) @ gamma
        resid_sd = math.sqrt(1.0 - gamma @ cc.sigma_u_given_t @ gamma)
        cvals = np.exp(norm.logpdf(z_y, cond_mean, resid_sd) - norm.logpdf(z_y))
    else:
        q = np.clip(norm.cdf(z), CDF_CLAMP, 1 - CDF_CLAMP)
        cvals = copula.density(pp, np.tile(q, (m_draws, 1)))
    w = cvals.reshape(m_draws, n * n_draws).mean(axis=1)
    return float(np.mean(y * w))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    m=st.integers(1, 3),
    n_draws=st.integers(1, 7),
    m_draws=st.integers(1, 30),
    kind=st.sampled_from(["gaussian", "custom"]),
    rows=st.sampled_from([0, 1, 2, 5, 13, 64]),
    slack=st.integers(0, 1),
)
def test_blocked_general_estimator_equals_unblocked(
    seed, n, m, n_draws, m_draws, kind, rows, slack
):
    # a budget of `rows` whole rows, or below one row when rows is 0
    block = max(1, rows * n_draws * m_draws + slack * (n_draws * m_draws - 1))
    cc, outcome, spec, observed, t = _random_model(seed, n, 3, m)
    if kind == "gaussian":
        copula = CopulaSpec("gaussian", gamma=spec.gamma)
    else:
        copula = CopulaSpec("custom", density=_fgm_first)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = _general_reference(t, copula, cc, outcome, observed, m_draws, n_draws, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(copula_module, "_BLOCK_ENTRIES", block)
            got = intervention_mean_general(
                t, copula, cc, outcome, observed, m_draws=m_draws, n_draws=n_draws,
                seed=seed,
            )
    assert got == pytest.approx(expected, rel=1e-12)


def test_gaussian_copula_weight_of_a_row_far_from_the_point():
    # m = 1, Sigma = 1, r2 = 0.9: the last row sits about 40 sd above
    # mu_{u|t} = 0, where exp(b c_u) alone would overflow for z_y > 1.9
    cc = ConditionalConfounder(
        coef=np.array([[1.0]]), sigma_u_given_t=np.array([[1.0]]),
        treatment_means=np.zeros(1),
    )
    outcome = GaussianOutcome(tau_naive=np.ones(1), intercept=2.0, sigma2_y_given_t=1.0)
    observed = TreatmentMatrix(np.array([[-1.0], [-0.3], [0.0], [0.4], [1.2], [40.0]]))
    copula = CopulaSpec("gaussian", gamma=np.array([math.sqrt(0.9)]))
    t = np.zeros(1)
    kwargs = dict(m_draws=200, n_draws=7, seed=5)
    expected = _general_reference(t, copula, cc, outcome, observed, **kwargs)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", category=RuntimeWarning, module="mtsens")
        # six rows, five of them under the model: the weights cannot average 1
        warnings.filterwarnings("ignore", "importance weights", UserWarning)
        got = intervention_mean_general(t, copula, cc, outcome, observed, **kwargs)
    assert got == pytest.approx(expected, rel=1e-12)


def test_clamp_count_of_one_value():
    u = np.array([CDF_CLAMP, 0.5, 1 - CDF_CLAMP])
    same, clamped = copula_module._clamped(u)
    assert same is u and clamped == 0
    for bad, edge in ((np.nextafter(CDF_CLAMP, 0.0), CDF_CLAMP),
                      (np.nextafter(1 - CDF_CLAMP, 1.0), 1 - CDF_CLAMP)):
        clipped, clamped = copula_module._clamped(np.array([0.2, bad, 0.7]))
        assert clamped == 1
        assert clipped.tolist() == [0.2, edge, 0.7]
    # one clamped draw among 500 maps through the clipped uniform and is
    # counted, in the warning as well
    emp = EmpiricalOutcome(
        mean_fn=lambda x: 0.0 * np.asarray(x)[..., 0],
        residual_quantiles=np.random.default_rng(1).normal(size=40),
        sigma2_y_given_t=1.0,
    )
    ytilde = np.linspace(-2.0, 2.0, 500)
    ytilde[123] = 9.0
    with pytest.warns(UserWarning, match="^1 of 500 copula draws hit the CDF clamping"):
        y = degaussianize(emp, np.zeros(1), ytilde)
    top = conditional_cdf_quantile(emp, np.zeros(1))[1](np.array([1 - CDF_CLAMP]))
    assert y[123] == top[0]
    with pytest.warns(UserWarning, match="^1 of 1 copula draws"):
        assert degaussianize(emp, np.zeros(1), 9.0) == top[0]


def _gaussian_reference(ts, spec, cc, outcome, observed, v, n_sim, seed, max_rows):
    """The Gaussian-copula estimator on one (row, draw) array per point,
    with the quantile of the clamped Phi(ytilde) for a non-Gaussian outcome."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = copula_module._select_rows(observed, max_rows, rng)
    n = rows.shape[0]
    z = rng.standard_normal(size=(n, n_sim))
    out = []
    for t in ts:
        ytilde = ((rows - t) @ (cc.coef.T @ spec.gamma))[:, None] + z
        if isinstance(outcome, GaussianOutcome):
            y = outcome.mean(t) + outcome.sigma() * ytilde
        else:
            u = np.clip(norm.cdf(ytilde), CDF_CLAMP, 1 - CDF_CLAMP)
            y = conditional_cdf_quantile(outcome, t)[1](u)
        vals = y if v is None else v(y)
        se = (
            np.sqrt(np.sum(np.var(vals, axis=1, ddof=1)) / n_sim) / n
            if n_sim > 1 else math.nan
        )
        out.append((float(np.mean(vals)), float(se)))
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    m=st.integers(1, 3),
    kind=st.sampled_from(["gaussian", "empirical", "binary"]),
    n_sim=st.sampled_from([1, 2, 17, 200]),
    max_rows=st.one_of(st.none(), st.integers(1, 40)),
    block=st.sampled_from([1, 7, 64, 4096]),
)
def test_blocked_gaussian_path_equals_unblocked(seed, n, m, kind, n_sim, max_rows, block):
    cc, outcome, spec, observed, t = _random_model(seed, n, 3, m)
    rng = np.random.default_rng(seed)
    v = None
    if kind == "empirical":
        tau = outcome.tau_naive
        outcome = EmpiricalOutcome(
            mean_fn=lambda x: 3.0 + np.asarray(x) @ tau,
            residual_quantiles=rng.standard_t(4, size=30),
            sigma2_y_given_t=1.0,
        )
    elif kind == "binary":
        outcome = BinaryOutcome(
            probit_coef=0.5 * outcome.tau_naive, probit_intercept=0.2, p_y1=0.5
        )
        def v(y):
            return (y < 0.5).astype(float)
    ts = [t, np.zeros(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = _gaussian_reference(ts, spec, cc, outcome, observed, v, n_sim, seed, max_rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(copula_module, "_BLOCK_ENTRIES", block)
            got = copula_module._gaussian_means(
                ts, spec, cc, outcome, observed, v, n_sim, seed, max_rows
            )
    for res, (value, se) in zip(got, expected):
        assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert res.se == pytest.approx(se, rel=1e-12, abs=1e-12, nan_ok=True)
        assert res.n_rows == min(n, max_rows or n)


def test_general_estimator_memory_independent_of_rows():
    cc, outcome, spec, observed, t = _random_model(0, 1000, 5, 3)
    copula = CopulaSpec("gaussian", gamma=spec.gamma)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            intervention_mean_general(
                t, copula, cc, outcome, observed, m_draws=200, n_draws=20, seed=1
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_custom_copula_memory_at_benchmark_shape():
    # the FGM call of the Monte Carlo benchmark: 2000 rows sampled down to
    # 100, 200 x 50 draws, m = 3
    cc, outcome, _, observed, t = _random_model(0, 2000, 5, 3)
    copula = CopulaSpec("custom", density=_fgm_first)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            intervention_mean_general(
                t, copula, cc, outcome, observed, m_draws=200, n_draws=50, seed=1,
                max_rows=100,
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_gaussianize_identities():
    _, data, cc, outcome = _linear_setup(seed=12)
    t = np.array([0.3, -0.3, 0.0, 0.1])
    assert gaussianize(outcome, t, float(outcome.mean(t))) == pytest.approx(
        0.0, abs=1e-12
    )
    y_plus = float(outcome.mean(t)) + outcome.sigma()
    assert gaussianize(outcome, t, y_plus) == pytest.approx(1.0, abs=1e-12)
    for y in (-0.5, 0.7, 2.0):
        assert degaussianize(
            outcome, t, gaussianize(outcome, t, y)
        ) == pytest.approx(y, abs=1e-10)


# every entry point that takes a raw Sigma_{u|t}, called with valid other
# arguments at m = 2
_SIGMA_ENTRY_POINTS = {
    "ConditionalConfounder": lambda sigma: ConditionalConfounder(
        coef=np.eye(2), sigma_u_given_t=sigma),
    "mcc_minimize": lambda sigma: mcc_minimize(
        ContrastBank(deltas=np.array([[0.3, 0.1], [0.2, -0.4]]), naive=np.array([1.0, 0.5]),
                     sigma_y_given_t=1.0, sigma_u_given_t=sigma),
        norm="l2", r2_cap=0.5),
    "from_gamma": lambda sigma: SensitivitySpec.from_gamma(np.array([0.3, 0.2]), sigma),
    "from_r2_direction": lambda sigma: SensitivitySpec.from_r2_direction(
        0.3, np.array([1.0, 0.0]), sigma),
    "gaussian_copula_density": lambda sigma: gaussian_copula_density(
        np.array([0.3, 0.2]), sigma, 0.4, np.array([0.3, 0.7])),
}
_SCALE = 2.0
# each bad matrix with the error and the message that every entry point gives
_SIGMAS = {
    "valid": (np.array([[_SCALE, 0.5], [0.5, 1.0]]), None, None),
    "nan": (np.array([[_SCALE, np.nan], [0.5, 1.0]]), InputFormatError, "non-finite"),
    "asymmetric": (np.array([[_SCALE, 0.5], [0.5 + 1e-6 * _SCALE, 1.0]]),
                   DegenerateModelError, "not symmetric"),
    "indefinite": (np.diag([_SCALE, -1e-9 * _SCALE]), DegenerateModelError,
                   "negative eigenvalue"),
}


@pytest.mark.parametrize("sigma_case", list(_SIGMAS))
@pytest.mark.parametrize("entry", list(_SIGMA_ENTRY_POINTS))
def test_every_sigma_entry_point_applies_one_rule(entry, sigma_case):
    # psd_roots judges every Sigma, and the error names it: before, only
    # ConditionalConfounder refused an asymmetric or indefinite one, and the
    # others accepted it, called it singular, blamed gamma or the direction,
    # or raised numpy's LinAlgError
    sigma, expected, message = _SIGMAS[sigma_case]
    call = _SIGMA_ENTRY_POINTS[entry]
    if expected is None:
        call(sigma)
        return
    with pytest.raises(expected, match=f"sigma_u_given_t.*{message}") as exc:
        call(sigma)
    assert exc.type is expected


def test_singular_sigma_has_no_gaussian_copula_density():
    # rank 1 under the rank rule: the density returned 1.077 here, while the
    # estimator and the MCC solve refused the same matrix
    sigma = np.diag([1.0, 1e-11])
    with pytest.raises(InvalidCopulaError, match="singular"):
        gaussian_copula_density(np.array([0.3, 0.2]), sigma, 0.4, np.array([0.3, 0.7]))
    cc = ConditionalConfounder(coef=np.eye(2), sigma_u_given_t=sigma)
    assert cc.rank == 1
    outcome = GaussianOutcome(tau_naive=np.array([1.0, 0.5]), intercept=0.0,
                              sigma2_y_given_t=1.0)
    observed = TreatmentMatrix(np.random.default_rng(0).normal(size=(20, 2)))
    with pytest.raises(InvalidCopulaError):
        intervention_mean_general(np.ones(2), CopulaSpec("gaussian", gamma=np.zeros(2)), cc,
                                  outcome, observed, m_draws=10, n_draws=2)
    with pytest.raises(DegenerateModelError, match="singular"):
        _SIGMA_ENTRY_POINTS["mcc_minimize"](sigma)


def test_confounder_functions_reuse_its_factorization():
    # rr_curve and the Gaussian-copula estimator read cc.roots: they
    # factored Sigma twice and once per call before
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2))
    cc = ConditionalConfounder(coef=rng.normal(size=(2, 4)),
                               sigma_u_given_t=a @ a.T / 4 + 0.3 * np.eye(2))
    observed = TreatmentMatrix(rng.normal(size=(40, 4)))
    bo = BinaryOutcome(probit_coef=0.3 * rng.normal(size=4), probit_intercept=0.1, p_y1=0.5)
    outcome = GaussianOutcome(tau_naive=rng.normal(size=4), intercept=0.0,
                              sigma2_y_given_t=1.0)
    c = Contrast(rng.normal(size=4), np.zeros(4))
    copula = CopulaSpec("gaussian", gamma=np.array([0.2, -0.3]))
    calls = {
        "rr_curve": lambda: rr_curve(c, cc, bo, observed, np.array([0.6, 0.8]),
                                     [-0.5, 0.0, 0.5]),
        "intervention_mean_general": lambda: intervention_mean_general(
            c.t1, copula, cc, outcome, observed, m_draws=20, n_draws=5),
    }
    for name, call in calls.items():
        eigh = mock.Mock(side_effect=np.linalg.eigh)
        eigvalsh = mock.Mock(side_effect=np.linalg.eigvalsh)
        with mock.patch.object(np.linalg, "eigh", eigh), \
                mock.patch.object(np.linalg, "eigvalsh", eigvalsh):
            call()
        assert eigh.call_count + eigvalsh.call_count == 0, name
