import math

import numpy as np
import pytest
from scipy.stats import norm

from mtsens import (
    Contrast,
    DegenerateModelError,
    DimensionError,
    FactorModel,
    SimTruth,
    fit_linear,
    gen_gwas,
    gen_linear_gaussian,
    gen_nonlinear,
    naive_closed_form,
    rotation_sweep,
)

B_K4 = np.array([[2.0], [0.5], [-0.4], [0.2]])


def _truth(seed=0, gamma=2.8, tau=None):
    return SimTruth(
        b_true=B_K4,
        sigma2_t_given_u=1.0,
        sigma2_y_given_tu=1.0,
        gamma_true=np.array([gamma]),
        tau_true=np.ones(4) if tau is None else tau,
        seed=seed,
    )


def test_linear_unconfounded_ols_recovery():
    truth = _truth(seed=1, gamma=0.0, tau=np.array([1.0, -0.5, 0.0, 2.0]))
    data = gen_linear_gaussian(truth, 20000)
    fit = fit_linear(data.treatments, data.y)
    x = np.column_stack([np.ones(data.treatments.n), data.treatments.data])
    resid = data.y - x @ np.concatenate([[fit.intercept], fit.tau_naive])
    sigma2 = float(resid @ resid) / (x.shape[0] - x.shape[1])
    cov = sigma2 * np.linalg.inv(x.T @ x)
    ses = np.sqrt(np.diag(cov)[1:])
    assert np.all(np.abs(fit.tau_naive - truth.tau_true) <= 3 * ses)


def test_linear_confounded_naive_closed_form():
    truth = _truth(seed=2)
    expected = naive_closed_form(truth)
    # coef row is B'/(B'B + 1), so the naive slope picks up gamma times it
    manual = truth.tau_true + 2.8 * B_K4[:, 0] / (float(B_K4[:, 0] @ B_K4[:, 0]) + 1.0)
    assert np.allclose(expected, manual, atol=1e-12)
    data = gen_linear_gaussian(truth, 20000)
    fit = fit_linear(data.treatments, data.y)
    x = np.column_stack([np.ones(data.treatments.n), data.treatments.data])
    resid = data.y - x @ np.concatenate([[fit.intercept], fit.tau_naive])
    sigma2 = float(resid @ resid) / (x.shape[0] - x.shape[1])
    ses = np.sqrt(np.diag(sigma2 * np.linalg.inv(x.T @ x))[1:])
    assert np.all(np.abs(fit.tau_naive - expected) <= 3 * ses)


def test_linear_treatment_covariance():
    truth = _truth(seed=3)
    data = gen_linear_gaussian(truth, 50000)
    emp = np.cov(data.treatments.data, rowvar=False)
    pop = B_K4 @ B_K4.T + np.eye(4)
    assert np.max(np.abs(emp - pop)) < 0.1


def test_linear_reproducible():
    truth = _truth(seed=4)
    a = gen_linear_gaussian(truth, 50)
    b = gen_linear_gaussian(truth, 50)
    assert np.array_equal(a.treatments.data, b.treatments.data)
    assert np.array_equal(a.y, b.y)


def test_sim_truth_closed_form_vs_mc():
    truth = _truth(seed=5)
    for t in (np.zeros(4), np.array([1.0, 0.5, -0.5, 2.0])):
        closed = truth.intervention_mean(t)
        mc = truth.intervention_mean_mc(t, n_draws=400000, seed=9)
        assert closed == pytest.approx(mc, abs=0.02)


def test_sim_truth_binary_closed_form_vs_mc():
    data = gen_nonlinear(10, binary_y=True, seed=6)
    truth = data.truth
    for t in (np.zeros(4), np.array([0.5, -0.2, 0.3, 1.0])):
        closed = truth.intervention_mean(t)
        mc = truth.intervention_mean_mc(t, n_draws=400000, seed=11)
        assert closed == pytest.approx(mc, abs=0.005)
        g = float(truth.response(t[None, :])[0])
        assert closed == pytest.approx(
            norm.cdf(g / math.sqrt(1.0 + 2.8**2)), abs=1e-12
        )


def test_nonlinear_shapes_and_determinism():
    a = gen_nonlinear(500, seed=7)
    b = gen_nonlinear(500, seed=7)
    assert a.treatments.data.shape == (500, 4)
    assert a.y.shape == (500,)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, gen_nonlinear(500, seed=8).y)


def test_nonlinear_binary_outcome_is_binary():
    data = gen_nonlinear(300, binary_y=True, seed=9)
    assert set(np.unique(data.y)) <= {0.0, 1.0}
    assert data.truth.binary_y


def test_nonlinear_response_kink():
    data = gen_nonlinear(10, seed=10)
    g = data.truth.response
    base = np.zeros((1, 4))
    up = base.copy()
    up[0, 2] = 1.0
    down = base.copy()
    down[0, 2] = -1.0
    assert float(g(up)[0] - g(base)[0]) == pytest.approx(1.0, abs=1e-12)
    assert float(g(base)[0] - g(down)[0]) == pytest.approx(0.7, abs=1e-12)


def test_nonlinear_pate_ordering():
    # the quadratic in t1 makes its unit contrast weakest despite the large
    # linear coefficient; t2's is the strongest pure-linear effect
    truth = gen_nonlinear(10, seed=11).truth
    effects = {}
    for j in range(4):
        c = Contrast(np.eye(4)[j], np.zeros(4))
        effects[j] = abs(truth.pate(c))
    assert effects[1] == pytest.approx(1.0, abs=1e-12)
    assert effects[0] == pytest.approx(1.0, abs=1e-12)
    assert effects[3] == pytest.approx(0.06, abs=1e-12)
    assert effects[2] == pytest.approx(1.0, abs=1e-12)


def test_gwas_shapes_and_bernoulli_margins():
    data = gen_gwas(n=2000, k=30, m=2, seed=12)
    t = data.treatments.data
    assert t.shape == (2000, 30)
    assert set(np.unique(t)) == {0.0, 1.0}
    assert np.all(np.abs(t.mean(axis=0) - 0.5) < 0.06)


def test_gwas_nonnull_mask():
    data = gen_gwas(n=100, k=40, m=2, frac_large=0.1, seed=13)
    mask = data.truth.nonnull_mask
    assert mask.sum() == 4
    assert np.all(np.abs(data.truth.tau_true[mask]) <= 2.0)
    assert np.all(np.abs(data.truth.tau_true[~mask]) <= 0.1)
    none = gen_gwas(n=100, k=40, m=2, frac_large=0.0, seed=13)
    assert none.truth.nonnull_mask.sum() == 0


def test_gwas_determinism_and_seed_variation():
    a = gen_gwas(n=200, k=20, m=2, seed=14)
    b = gen_gwas(n=200, k=20, m=2, seed=14)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.truth.tau_true, b.truth.tau_true)
    assert not np.array_equal(a.y, gen_gwas(n=200, k=20, m=2, seed=15).y)


def test_gwas_confounding_inflates_null_estimates():
    # naive OLS on the null coordinates scatters far beyond the true taus
    sd_null_err = []
    sd_null_tau = []
    for seed in range(5):
        data = gen_gwas(n=1000, k=60, m=3, seed=seed)
        fit = fit_linear(data.treatments, data.y)
        null = ~data.truth.nonnull_mask
        err = fit.tau_naive[null] - data.truth.tau_true[null]
        sd_null_err.append(np.std(err))
        sd_null_tau.append(np.std(data.truth.tau_true[null]))
    assert np.median(sd_null_err) > 2.0 * np.median(sd_null_tau)


def test_gwas_frac_validation():
    with pytest.raises(DimensionError):
        gen_gwas(n=100, k=10, frac_large=1.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gen_gwas(n=5, k=5, m=0),
        lambda: gen_gwas(n=5, k=5, m=-1),
        lambda: gen_gwas(n=5, k=0, m=1),
        lambda: gen_gwas(n=1, k=5, m=1),
        lambda: gen_gwas(n=-5, k=5, m=1),
        lambda: gen_linear_gaussian(_truth(), 1),
        lambda: gen_linear_gaussian(_truth(), -3),
        lambda: gen_nonlinear(0),
        lambda: gen_nonlinear(-3, binary_y=True),
    ],
    ids=["gwas-m0", "gwas-m-1", "gwas-k0", "gwas-n1", "gwas-n-5", "linear-n1", "linear-n-3",
         "nonlinear-n0", "nonlinear-binary-n-3"],
)
def test_generators_refuse_sizes_below_the_smallest_panel(call):
    # m = 0 raised IndexError and a negative size numpy's ValueError
    with pytest.raises(DimensionError, match="must be at least"):
        call()
    assert gen_gwas(n=2, k=1, m=1).treatments.data.shape == (2, 1)


def test_rotation_sweep_endpoints():
    fm = FactorModel(
        b_hat=B_K4,
        sigma2_t_given_u=1.0,
        m=1,
        singular_values=np.array([float(np.linalg.norm(B_K4))]),
    )
    sweep = rotation_sweep(fm, 1.0, 1.0, n_theta=9)
    thetas = [s[0] for s in sweep]
    biases = [s[1] for s in sweep]
    assert thetas[0] == 0.0
    assert thetas[-1] == pytest.approx(math.pi / 2, abs=1e-12)
    assert biases[0] == pytest.approx(0.9036115102564205, abs=1e-10)
    assert biases[-1] == pytest.approx(0.0, abs=1e-10)
    for a, b in zip(biases, biases[1:]):
        assert b <= a + 1e-12


def test_rotation_sweep_two_factor_model():
    rng = np.random.default_rng(16)
    b = rng.normal(size=(3, 2))
    fm = FactorModel(
        b_hat=b,
        sigma2_t_given_u=1.0,
        m=2,
        singular_values=np.linalg.svd(b, compute_uv=False),
    )
    sweep = rotation_sweep(fm, 1.0, 0.5, n_theta=5)
    assert sweep[-1][1] == pytest.approx(0.0, abs=1e-10)
    assert sweep[0][1] > 0.0
