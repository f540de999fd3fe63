import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import qr
from scipy.stats import norm

from mtsens import (
    BinaryOutcome,
    DimensionError,
    EmpiricalOutcome,
    PolynomialMeanFn,
    SeparationError,
    SingularFitError,
    TreatmentMatrix,
    conditional_cdf_quantile,
    fit_empirical,
    fit_linear,
    fit_probit,
    fit_proxy,
    gen_linear_gaussian,
    load_outcome,
    naive_closed_form,
    save_outcome,
    SimTruth,
)

B_K4 = np.array([[2.0], [0.5], [-0.4], [0.2]])


def test_fit_linear_exact_fit_warns():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(50, 3))
    y = 2.0 * data[:, 0]
    with pytest.warns(UserWarning, match="deterministic"):
        out = fit_linear(TreatmentMatrix(data), y)
    assert out.tau_naive == pytest.approx([2.0, 0.0, 0.0], abs=1e-10)


def test_fit_linear_matches_confounded_closed_form():
    truth = SimTruth(
        b_true=B_K4,
        sigma2_t_given_u=1.0,
        sigma2_y_given_tu=1.0,
        gamma_true=np.array([2.8]),
        tau_true=np.ones(4),
        seed=4,
    )
    data = gen_linear_gaussian(truth, 20000)
    out = fit_linear(data.treatments, data.y)
    expected = naive_closed_form(truth)
    x = np.column_stack([np.ones(20000), data.treatments.data])
    cov = out.sigma2_y_given_t * np.linalg.inv(x.T @ x)
    se = np.sqrt(np.diag(cov))[1:]
    assert np.all(np.abs(out.tau_naive - expected) <= 3 * se)


def test_fit_linear_null_outcome():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(5000, 3))
    y = rng.normal(size=5000)
    out = fit_linear(TreatmentMatrix(data), y)
    se = math.sqrt(out.sigma2_y_given_t / 5000)
    assert np.all(np.abs(out.tau_naive) <= 3 * se * 1.5)


def test_fit_linear_duplicate_column_named_in_error():
    rng = np.random.default_rng(2)
    col = rng.normal(size=40)
    data = np.column_stack([col, col, rng.normal(size=40)])
    with pytest.raises(SingularFitError) as exc:
        fit_linear(TreatmentMatrix(data), rng.normal(size=40))
    assert exc.value.columns


def test_fit_linear_needs_enough_rows():
    with pytest.raises(DimensionError):
        fit_linear(TreatmentMatrix(np.zeros((3, 3))), np.zeros(3))


def test_fit_probit_recovers_coefficients():
    rng = np.random.default_rng(5)
    n = 30000
    data = rng.normal(size=(n, 2))
    eta = 0.3 + data @ np.array([0.8, -0.5])
    y = (rng.uniform(size=n) < norm.cdf(eta)).astype(float)
    out = fit_probit(TreatmentMatrix(data), y)
    assert out.probit_intercept == pytest.approx(0.3, abs=0.05)
    assert out.probit_coef == pytest.approx([0.8, -0.5], abs=0.05)
    assert out.p_y1 == pytest.approx(float(y.mean()), abs=1e-12)


def test_fit_probit_one_class_rejected():
    data = np.random.default_rng(6).normal(size=(30, 2))
    with pytest.raises(ValueError):
        fit_probit(TreatmentMatrix(data), np.ones(30))


def test_fit_probit_separation():
    t = np.linspace(-2, 2, 60).reshape(-1, 1)
    y = (t[:, 0] > 0).astype(float)
    with pytest.raises(SeparationError):
        fit_probit(TreatmentMatrix(t), y)


def test_fit_empirical_quadratic_truth():
    rng = np.random.default_rng(7)
    t = rng.normal(size=(4000, 2))
    y = 1.0 + t[:, 0] - 2.0 * t[:, 1] ** 2 + 0.5 * rng.normal(size=4000)
    out = fit_empirical(TreatmentMatrix(t), y, degree=2)
    probe = np.array([0.3, -0.7])
    expected = 1.0 + probe[0] - 2.0 * probe[1] ** 2
    assert out.mean(probe) == pytest.approx(expected, abs=0.05)
    assert out.sigma2_y_given_t == pytest.approx(0.25, rel=0.1)


def test_fit_empirical_custom_mean_fn():
    rng = np.random.default_rng(8)
    t = rng.normal(size=(500, 1))
    y = np.sin(t[:, 0]) + 0.1 * rng.normal(size=500)
    out = fit_empirical(TreatmentMatrix(t), y, mean_fn=lambda x: np.sin(x[..., 0]))
    assert out.mean(np.array([0.5])) == pytest.approx(math.sin(0.5), abs=1e-12)


def test_gaussian_cdf_quantile_round_trip():
    model = fit_linear(
        TreatmentMatrix(np.random.default_rng(9).normal(size=(100, 2))),
        np.random.default_rng(10).normal(size=100),
    )
    t = np.array([0.2, -0.4])
    cdf, quantile = conditional_cdf_quantile(model, t)
    for y in (-1.0, 0.0, 2.5):
        assert quantile(cdf(y)) == pytest.approx(y, abs=1e-10)
    with pytest.raises(ValueError):
        quantile(0.0)
    with pytest.raises(ValueError):
        quantile(1.0)


def test_binary_cdf_quantile_two_point_law():
    model = BinaryOutcome(
        probit_coef=np.array([0.5]), probit_intercept=0.0, p_y1=0.4
    )
    t = np.array([0.0])
    mu = model.mu_y(t)
    cdf, quantile = conditional_cdf_quantile(model, t)
    assert cdf(0.0) == pytest.approx(1 - mu, abs=1e-12)
    assert cdf(1.0) == pytest.approx(1.0, abs=1e-12)
    assert quantile(1 - mu / 2) == 1.0
    assert quantile((1 - mu) / 2) == 0.0


def test_empirical_cdf_quantile_monotone():
    rng = np.random.default_rng(11)
    t = rng.normal(size=(300, 1))
    y = t[:, 0] + rng.normal(size=300)
    model = fit_empirical(TreatmentMatrix(t), y, degree=1)
    cdf, quantile = conditional_cdf_quantile(model, np.array([0.5]))
    ps = np.linspace(0.01, 0.99, 25)
    qs = np.array([quantile(p) for p in ps])
    assert np.all(np.diff(qs) >= -1e-12)
    mid = quantile(0.5)
    assert cdf(mid) == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize("kind", ["gaussian", "probit", "empirical"])
def test_outcome_round_trip(tmp_path, kind):
    rng = np.random.default_rng(12)
    t = rng.normal(size=(400, 2))
    if kind == "gaussian":
        model = fit_linear(TreatmentMatrix(t), t[:, 0] + rng.normal(size=400))
    elif kind == "probit":
        y = (rng.uniform(size=400) < norm.cdf(t[:, 0])).astype(float)
        model = fit_probit(TreatmentMatrix(t), y)
    else:
        model = fit_empirical(
            TreatmentMatrix(t), t[:, 0] ** 2 + rng.normal(size=400), degree=2
        )
    path = tmp_path / "outcome.json"
    save_outcome(model, path)
    loaded = load_outcome(path)
    assert type(loaded) is type(model)
    probe = np.array([0.3, -0.2])
    if kind == "probit":
        assert loaded.mu_y(probe) == pytest.approx(model.mu_y(probe), abs=1e-12)
    else:
        assert loaded.mean(probe) == pytest.approx(model.mean(probe), abs=1e-12)
        assert loaded.sigma2_y_given_t == model.sigma2_y_given_t


def test_save_outcome_rejects_opaque_mean_fn(tmp_path):
    model = EmpiricalOutcome(
        mean_fn=lambda x: x[..., 0],
        residual_quantiles=np.array([-1.0, 0.0, 1.0]),
        sigma2_y_given_t=1.0,
    )
    with pytest.raises(TypeError):
        save_outcome(model, tmp_path / "bad.json")


def test_polynomial_mean_fn_layout():
    # coef rows are per treatment, columns per degree
    fn = PolynomialMeanFn(
        degree=2, intercept=1.0, coef=np.array([[2.0, 0.5], [0.0, -1.0]])
    )
    t = np.array([3.0, 2.0])
    assert fn(t) == pytest.approx(1.0 + 6.0 + 0.5 * 9 - 4.0, abs=1e-12)


# ------------------------------------------------ least squares by one QR


def _rank_check_names(x, names):
    """Reference: the dependent columns the separate pivoted-QR rank check
    named before the fits solved from that same QR."""
    _, r, piv = qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > diag.max() * max(x.shape) * np.finfo(float).eps))
    return [names[i] for i in sorted(piv[rank:])]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, k, spread", [(30, 3, 1.0), (200, 40, 1.0), (80, 6, 1e4)])
def test_fit_linear_matches_lstsq(seed, n, k, spread):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, k)) * np.logspace(0, np.log10(spread), k) + rng.normal(size=k)
    y = data @ rng.normal(size=k) + rng.normal(size=n)
    out = fit_linear(TreatmentMatrix(data), y)
    x = np.column_stack([np.ones(n), data])
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    got = np.concatenate([[out.intercept], out.tau_naive])
    assert np.linalg.norm(got - beta) <= 1e-10 * np.linalg.norm(beta)
    resid = y - x @ beta
    assert out.sigma2_y_given_t == pytest.approx(resid @ resid / (n - k - 1), rel=1e-10)


@pytest.mark.parametrize("case", ["duplicate", "constant", "sum"])
def test_fit_linear_singular_names_same_columns(case):
    rng = np.random.default_rng(9)
    data = rng.normal(size=(50, 4))
    if case == "duplicate":
        data[:, 3] = data[:, 1]
    elif case == "constant":
        data[:, 2] = 3.0
    else:
        data[:, 0] = data[:, 1] + 2.0 * data[:, 3]
    tm = TreatmentMatrix(data)
    expected = _rank_check_names(
        np.column_stack([np.ones(50), data]), ["intercept"] + tm.names()
    )
    with pytest.raises(SingularFitError) as exc:
        fit_linear(tm, rng.normal(size=50))
    assert expected and exc.value.columns == expected


@st.composite
def _straddling_designs(draw):
    """Treatments whose design [1, T] runs from well conditioned past the
    rank boundary: a column mixed into another or scaled by 10^-e, e in
    [2, 15], or an exact duplicate, sum or constant column."""
    n = draw(st.integers(12, 60))
    k = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-2, 2, size=k)
    i, j, l = rng.permutation(k)[:3]
    delta = 10.0 ** -draw(st.floats(2.0, 15.0))
    kind = draw(st.sampled_from(["mix", "scale", "duplicate", "sum", "constant"]))
    if kind == "mix":
        t[:, j] = t[:, i] + delta * t[:, j]
    elif kind == "scale":
        t[:, j] *= delta
    elif kind == "duplicate":
        t[:, j] = t[:, i]
    elif kind == "sum":
        t[:, j] = t[:, i] - 0.5 * t[:, l]
    else:
        t[:, j] = 2.5
    return t, t @ rng.normal(size=k) + rng.normal(size=n)


@settings(max_examples=300, deadline=None)
@given(_straddling_designs())
def test_certified_qr_keeps_pivoted_verdict(design):
    t, y = design
    n = t.shape[0]
    tm = TreatmentMatrix(t)
    x = np.column_stack([np.ones(n), t])
    expected = _rank_check_names(x, ["intercept"] + tm.names())
    if expected:
        with pytest.raises(SingularFitError) as exc:
            fit_linear(tm, y)
        assert exc.value.columns == expected
        return
    out = fit_linear(tm, y)
    # compared per unit-norm column: QR is invariant to column scaling,
    # while lstsq drops singular values below max(n, p) eps sigma_max
    norms = np.linalg.norm(x, axis=0)
    xs = x / norms
    got = np.concatenate([[out.intercept], out.tau_naive]) * norms
    ref = np.linalg.lstsq(xs, y, rcond=None)[0]
    eps = np.finfo(float).eps
    kappa = np.linalg.cond(xs)
    resid = np.linalg.norm(y - xs @ ref)
    # 1e-10 where the least-squares perturbation bound (Higham 2002, Thm
    # 20.1) for two solves backward stable to n eps allows it; that bound
    # is void for kappa near 1/eps, where the normal equations certify
    bound = 2 * n * eps * kappa * (
        2 + (kappa + 1) * resid / (np.linalg.norm(xs, 2) * np.linalg.norm(ref))
    )
    assert np.linalg.norm(got - ref) <= max(1e-10, bound) * np.linalg.norm(ref)
    r = y - xs @ got
    scale = np.linalg.norm(y) + np.linalg.norm(xs) * np.linalg.norm(got)
    assert np.linalg.norm(xs.T @ r) <= 10 * n * eps * scale


@pytest.mark.parametrize("seed", range(4))
def test_fit_proxy_matches_lstsq(seed):
    rng = np.random.default_rng(seed)
    n = 300
    u = rng.normal(size=n)
    z = 2.0 + 3.0 * (u + rng.normal(size=n))
    t = 0.7 * u + rng.normal(size=n)
    y = 0.4 * t + 1.1 * u + rng.normal(size=n)
    fit = fit_proxy(y, t, z)
    zs = (z - z.mean()) / np.std(z)
    design_t = np.column_stack([np.ones(n), zs])
    design_y = np.column_stack([np.ones(n), t, zs])
    coef_t, *_ = np.linalg.lstsq(design_t, t, rcond=None)
    coef_y, *_ = np.linalg.lstsq(design_y, y, rcond=None)
    assert fit.tilde_beta == pytest.approx(coef_t[1], rel=1e-10)
    assert fit.tilde_tau == pytest.approx(coef_y[1], rel=1e-10)
    assert fit.tilde_gamma == pytest.approx(coef_y[2], rel=1e-10)
    resid_t = t - design_t @ coef_t
    resid_y = y - design_y @ coef_y
    assert fit.sigma2_t_given_z == pytest.approx(np.mean(resid_t**2), rel=1e-10)
    assert fit.sigma2_y_given_tz == pytest.approx(np.mean(resid_y**2), rel=1e-10)


def test_fit_proxy_collinear_treatment_names_same_columns():
    rng = np.random.default_rng(4)
    z = rng.normal(size=40)
    t = 1.0 + 2.0 * z
    zs = (z - z.mean()) / np.std(z)
    expected = _rank_check_names(
        np.column_stack([np.ones(40), t, zs]), ["intercept", "t", "z"]
    )
    with pytest.raises(SingularFitError) as exc:
        fit_proxy(rng.normal(size=40), t, z)
    assert expected and exc.value.columns == expected

