import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import qr, solve_triangular
from scipy.optimize import linprog
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

import mtsens.factor
import mtsens.outcome
from mtsens import (
    BinaryOutcome,
    DimensionError,
    EmpiricalOutcome,
    GaussianOutcome,
    InputFormatError,
    PolynomialMeanFn,
    SeparationError,
    SingularFitError,
    TreatmentMatrix,
    conditional_cdf_quantile,
    fit_empirical,
    fit_linear,
    fit_probit,
    fit_proxy,
    gen_gwas,
    gen_linear_gaussian,
    load_outcome,
    naive_closed_form,
    save_outcome,
    SimTruth,
)
from mtsens._linalg import certified_gram, certified_lstsq
from mtsens.outcome import _probit_mle

B_K4 = np.array([[2.0], [0.5], [-0.4], [0.2]])


def test_fit_linear_exact_fit_warns():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(50, 3))
    y = 2.0 * data[:, 0]
    with pytest.warns(UserWarning, match="deterministic"):
        out = fit_linear(TreatmentMatrix(data), y)
    assert out.tau_naive == pytest.approx([2.0, 0.0, 0.0], abs=1e-10)


def test_fit_linear_exact_fit_rule_is_scale_free():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(50, 3))
    y = data @ np.array([1.0, -0.5, 0.2]) + rng.normal(size=50)
    unit = fit_linear(TreatmentMatrix(data), y)
    # the same noisy fit in units 1e7 times smaller is no exact fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small = fit_linear(TreatmentMatrix(data), y * 1e-7)
    assert small.sigma2_y_given_t == pytest.approx(unit.sigma2_y_given_t * 1e-14, rel=1e-10)
    # a constant y is one at any scale, though its var(y) is rounding noise
    for c in (3.7, 1e-7, 1e5):
        with pytest.warns(UserWarning, match="deterministic"):
            fit_linear(TreatmentMatrix(data), np.full(50, c))


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


def _completely_separable(t, y):
    """Albert & Anderson (1984): the data are completely separated exactly
    when some b has s_i x_i'b >= 1 on every row, an LP feasibility check."""
    x = np.column_stack([np.ones(t.shape[0]), t])
    res = linprog(np.zeros(x.shape[1]), A_ub=-(2.0 * y - 1.0)[:, None] * x,
                  b_ub=-np.ones(t.shape[0]), bounds=(None, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


@st.composite
def _separation_designs(draw):
    """Small designs, separated or not: n rows of k columns, each N(0, 1) or
    Bernoulli(q), y from a probit of coefficients from weak to strong, and a
    common column scale from 1e-5 to 1e3."""
    n = draw(st.integers(min_value=6, max_value=120))
    kinds = draw(st.lists(st.sampled_from(["normal", "binary"]), min_size=1, max_size=5))
    strength = draw(st.sampled_from([0.5, 2.0, 10.0, 100.0]))
    scale = 10.0 ** draw(st.floats(min_value=-5.0, max_value=3.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cols = [rng.normal(size=n) if kind == "normal"
            else (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(float)
            for kind in kinds]
    t = np.column_stack(cols)
    eta = rng.uniform(-0.5, 0.5) + strength * (t @ rng.normal(size=len(kinds)))
    y = (rng.uniform(size=n) < ndtr(eta)).astype(float)
    return t, y, scale


@settings(max_examples=300, deadline=None)
@given(_separation_designs())
def test_fit_probit_separation_matches_lp_verdict(design):
    t, y, scale = design
    assume(0.0 < y.mean() < 1.0)
    # a positive column scale maps separating coefficients b to b / scale,
    # so the LP verdict on the unit-scale columns holds at every scale
    separable = _completely_separable(t, y)
    with warnings.catch_warnings():
        # quasi-complete separation may end at the iteration cap
        warnings.simplefilter("ignore", UserWarning)
        try:
            fit_probit(TreatmentMatrix(t * scale), y)
            raised = False
        except SeparationError:
            raised = True
    assert raised == separable


def test_fit_probit_is_equivariant_under_column_scaling():
    # the MLE in units 1e4 times smaller is 1e4 times larger, far above any
    # fixed coefficient bound
    rng = np.random.default_rng(7)
    t = rng.normal(size=(500, 3))
    y = (rng.uniform(size=500) < ndtr(0.3 + t @ np.array([0.8, -0.5, 0.15]))).astype(float)
    unit = fit_probit(TreatmentMatrix(t), y)
    small = fit_probit(TreatmentMatrix(t * 1e-4), y)
    assert np.max(np.abs(small.probit_coef)) > 1e3
    assert np.linalg.norm(small.probit_coef * 1e-4 - unit.probit_coef) <= (
        1e-8 * np.linalg.norm(unit.probit_coef))
    assert small.probit_intercept == pytest.approx(unit.probit_intercept, rel=1e-8)


def test_fit_probit_separated_panel_raises_within_a_few_steps(monkeypatch):
    sim = gen_gwas(n=2000, k=200, m=3, seed=0)
    y = (sim.y > np.median(sim.y)).astype(float)
    steps = []
    solve = mtsens.outcome.certified_cholesky_solve

    def counted(*args):
        steps.append(1)
        return solve(*args)

    monkeypatch.setattr(mtsens.outcome, "certified_cholesky_solve", counted)
    with pytest.raises(SeparationError):
        fit_probit(sim.treatments, y)
    # the first iterate whose margins are all positive ends the fit; waiting
    # for the score to underflow took 27 steps
    assert len(steps) <= 12


def test_margins_positive_only_by_rounding_are_no_separation():
    # the middle row is the midpoint of the outer two, with the other label,
    # so no b gives all three exact margins s_i x_i'b a positive sign
    u, v = np.spacing(0.7), np.spacing(0.3)
    t = np.array([[0.7, 0.3 + 2 * v], [0.7 + u, 0.3 + v], [0.7 + 2 * u, 0.3]])
    y = np.array([1.0, 0.0, 1.0])
    assert np.all(2.0 * t[1] == t[0] + t[2])
    x, s = np.column_stack([np.ones(3), t]), 2.0 * y - 1.0
    rng = np.random.default_rng(0)
    for _ in range(20000):
        b1, b2 = rng.normal(size=2)
        start = np.array([-(b1 * 0.7 + b2 * 0.3) + rng.normal() * u * abs(b1), b1, b2])
        if np.min(s * (x @ start)) > 0:
            break
    else:
        pytest.fail("no start with positive computed margins")
    # computed margins all positive, but within the rounding bound of x'b
    with pytest.warns(UserWarning, match="iteration cap"):
        _probit_mle(TreatmentMatrix(t), y, start, max_iter=0)


def _probit_score(t, y, model):
    """max |score| of the probit log-likelihood at the fitted model, through
    log_ndtr and the inverse Mills ratio."""
    x = np.column_stack([np.ones(t.shape[0]), t])
    sgn = 2.0 * y - 1.0
    m = sgn * (x @ np.r_[model.probit_intercept, model.probit_coef])
    mills = np.exp(-0.5 * m * m - 0.5 * math.log(2.0 * math.pi) - log_ndtr(m))
    return float(np.max(np.abs(x.T @ (sgn * mills))))


def _fisher_scoring_probit(t, y, tol=1e-12, max_iter=5000):
    """The step-halving Fisher-scoring probit fit that preceded the Newton
    one, run to a tighter score: beta and the Fisher information there, or
    None when it does not get there. Likelihood, score and information are
    taken through log_ndtr rather than a cdf clipped to [1e-12, 1 - 1e-12]:
    under quasi-separation the clip pins the score of the separated rows
    near 1e-12 and the line search then stalls above tol."""
    n = t.shape[0]
    x = np.column_stack([np.ones(n), t])
    sgn = 2.0 * y - 1.0
    beta = np.zeros(x.shape[1])

    def nll(b):
        return -float(np.sum(log_ndtr(sgn * (x @ b))))

    current = nll(beta)
    for _ in range(max_iter):
        eta = x @ beta
        log_phi = -0.5 * eta * eta - 0.5 * math.log(2.0 * math.pi)
        score = x.T @ (sgn * np.exp(log_phi - log_ndtr(sgn * eta)))
        weight = np.exp(2.0 * log_phi - log_ndtr(eta) - log_ndtr(-eta))
        hess = x.T @ (weight[:, None] * x)
        if np.max(np.abs(score)) < tol:
            return beta, hess
        step = np.linalg.lstsq(hess, score, rcond=None)[0]
        scale = 1.0
        for _ in range(30):
            if nll(beta + scale * step) <= current + 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        current = nll(beta)
    return None


@st.composite
def _probit_designs(draw):
    """n rows of k columns, each N(0, 1) or Bernoulli(q), and y from a probit
    of moderate coefficients."""
    n = draw(st.integers(min_value=40, max_value=400))
    kinds = draw(st.lists(st.sampled_from(["normal", "binary"]), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cols = [rng.normal(size=n) if kind == "normal"
            else (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(float)
            for kind in kinds]
    t = np.column_stack(cols)
    eta = rng.uniform(-0.5, 0.5) + t @ rng.uniform(-1.0, 1.0, size=len(kinds))
    y = (rng.uniform(size=n) < norm.cdf(eta)).astype(float)
    return t, y


@settings(max_examples=150, deadline=None)
@given(_probit_designs())
def test_fit_probit_matches_fisher_scoring(design):
    t, y = design
    assume(0.0 < y.mean() < 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = fit_probit(TreatmentMatrix(t), y)
        except SeparationError:
            assume(False)
    assert _probit_score(t, y, model) < 1e-8
    ref = _fisher_scoring_probit(t, y)
    assert ref is not None
    beta_ref, info = ref
    # a well-determined maximum; quasi-separation leaves a flat direction
    # along which both fits stop wherever the score first drops below tol
    assume(np.linalg.eigvalsh(info)[0] > 0.1)
    beta = np.r_[model.probit_intercept, model.probit_coef]
    assert np.linalg.norm(beta - beta_ref) <= 1e-7 * max(np.linalg.norm(beta_ref), 1.0)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_fit_probit_takes_full_steps_at_rounding_level(tol):
    # the last Newton decrements fall below the rounding level of the
    # log-likelihood while the score is still above tol in some of these
    # designs (seeds 32, 79 and 117 with x86-64 OpenBLAS): a backtracking
    # search cannot see an ascent there and halves the step to nothing
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(40, 401)), int(rng.integers(1, 7))
        t = rng.normal(size=(n, k))
        eta = rng.uniform(-0.5, 0.5) + t @ rng.uniform(-1.0, 1.0, size=k)
        y = (rng.uniform(size=n) < norm.cdf(eta)).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_probit(TreatmentMatrix(t), y, tol=tol)
        assert _probit_score(t, y, model) < tol


def test_fit_probit_converges_on_wide_panel():
    # the clipped Fisher-scoring fit stopped at its cap with a score of 7.9e-7
    sim = gen_gwas(n=1000, k=100, m=3, seed=3)
    y = (sim.y > np.median(sim.y)).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_probit(sim.treatments, y)
    assert _probit_score(sim.treatments.data, y, model) < 1e-8


def test_fit_probit_splits_duplicated_column_equally():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(400, 4))
    t = np.column_stack([base, base[:, 1]])
    eta = 0.2 + base @ np.array([0.5, 0.5, -0.3, 0.2])
    y = (rng.uniform(size=400) < norm.cdf(eta)).astype(float)
    model = fit_probit(TreatmentMatrix(t), y)
    distinct = fit_probit(TreatmentMatrix(base), y)
    # the minimum-norm coefficients with the linear predictor of the fit on
    # the distinct columns, as np.linalg.lstsq returns them
    x = np.column_stack([np.ones(400), t])
    expected = np.linalg.lstsq(
        x, distinct.probit_intercept + base @ distinct.probit_coef, rcond=None
    )[0]
    beta = np.r_[model.probit_intercept, model.probit_coef]
    assert np.allclose(beta, expected, rtol=0.0, atol=1e-8)
    assert model.probit_coef[1] == pytest.approx(model.probit_coef[4], abs=1e-8)


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


def _polynomial_design(t, degree):
    n = t.shape[0]
    return np.hstack([np.ones((n, 1)), t] + [t**d for d in range(2, degree + 1)])


def _treatment_column(rng, kind, n):
    if kind == "binary":
        return rng.integers(0, 2, size=n).astype(float)
    if kind == "ternary":
        return rng.integers(0, 3, size=n).astype(float)
    return rng.normal(size=n)


@st.composite
def _polynomial_fits(draw):
    """Treatments that are 0/1, {0, 1, 2}, continuous or a mix of these,
    sometimes with a duplicated column or a {0, -1} column, where the
    distinct design is rank deficient."""
    n = draw(st.integers(20, 120))
    k = draw(st.integers(1, 6))
    degree = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["binary", "ternary", "continuous"]
    kind = draw(st.sampled_from(kinds + ["mixed"]))
    cols = [_treatment_column(rng, rng.choice(kinds) if kind == "mixed" else kind, n)
            for _ in range(k)]
    t = np.column_stack(cols)
    extra = draw(st.sampled_from([None, "duplicate", "negative"]))
    if extra == "duplicate":
        t = np.column_stack([t, t[:, rng.integers(k)]])
    elif extra == "negative":
        t = np.column_stack([t, -rng.integers(0, 2, size=n).astype(float)])
    y = t @ rng.normal(size=t.shape[1]) + (t**2) @ rng.normal(size=t.shape[1])
    return t, y + rng.normal(size=n), degree


def _example_fit(extra):
    rng = np.random.default_rng(5)
    t = rng.integers(0, 2, size=(40, 3)).astype(float)
    t[:, 2] = t[:, 0] if extra == "duplicate" else -t[:, 2]
    return t, t.sum(axis=1) + rng.normal(size=40), 2


@settings(max_examples=200, deadline=None)
@given(_polynomial_fits())
@example(_example_fit("duplicate"))
@example(_example_fit("negative"))
def test_fit_empirical_is_the_min_norm_lstsq_fit(fit):
    t, y, degree = fit
    x = _polynomial_design(t, degree)
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    out = fit_empirical(TreatmentMatrix(t), y, degree=degree)
    got = np.concatenate([[out.mean_fn.intercept], out.mean_fn.coef.T.reshape(-1)])
    resid = np.sort(y - x @ beta)
    # the distinct columns: 1, t and every t_j**d that is not t_j
    distinct = 1 + t.shape[1] + sum(
        int(np.sum(~np.all(t**d == t, axis=0))) for d in range(2, degree + 1)
    )
    if np.linalg.matrix_rank(x) < distinct:
        # no certificate: np.linalg.lstsq on the full design, unchanged
        assert got.tobytes() == beta.tobytes()
    scale = max(1.0, float(np.max(np.abs(beta))))
    np.testing.assert_allclose(got, beta, rtol=1e-10, atol=1e-10 * scale)
    np.testing.assert_allclose(out.residual_quantiles, resid, rtol=1e-10,
                               atol=1e-10 * max(1.0, float(np.max(np.abs(y)))))
    assert out.sigma2_y_given_t == pytest.approx(float(np.mean(resid**2)), rel=1e-10)
    # off the 0/1 points the split over the copies of t_j matters
    half = np.full(t.shape[1], 0.5)
    expected = float(_polynomial_design(half[None], degree)[0] @ beta)
    assert out.mean(half) == pytest.approx(expected, rel=1e-10, abs=1e-10 * scale)


@pytest.mark.parametrize("kind", ["gaussian", "empirical", "probit"])
def test_quantile_outside_unit_interval_is_input_format_error(kind):
    rng = np.random.default_rng(14)
    t = rng.normal(size=(60, 2))
    if kind == "gaussian":
        model = fit_linear(TreatmentMatrix(t), rng.normal(size=60))
    elif kind == "empirical":
        model = fit_empirical(TreatmentMatrix(t), rng.normal(size=60), degree=2)
    else:
        model = BinaryOutcome(probit_coef=np.ones(2), probit_intercept=0.0, p_y1=0.5)
    _, quantile = conditional_cdf_quantile(model, np.zeros(2))
    for p in (0.0, 1.0, np.array([0.5, 1.5])):
        with pytest.raises(InputFormatError, match="strictly inside"):
            quantile(p)


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


def _small_columns_design(seed):
    """Treatments 100 times smaller than the intercept column, one of them
    1e-12 times smaller still: the pivoted QR of [1, T] names that one as
    dependent, so the certificate must count the intercept column."""
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(50, 3)) * np.array([1e-2, 1e-2, 1e-14])
    return t, t @ rng.normal(size=3) + rng.normal(size=50)


@settings(max_examples=300, deadline=None)
@given(_straddling_designs())
@example(_small_columns_design(1))
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
    _assert_within_lstsq_bound(xs, y, got, np.linalg.lstsq(xs, y, rcond=None)[0])


def _assert_within_lstsq_bound(xs, y, got, ref):
    """got against the reference solution ref of y on the unit-norm columns
    xs, and its normal-equations residual at rounding level."""
    n = xs.shape[0]
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


def _gram_design(n, p, log_kappa, spread, noise, seed):
    """An n x p design whose unit-norm columns have kappa(X'X) about
    10^log_kappa, scaled by 10^e per column, e uniform in [-spread, spread],
    and y = X b + noise * ||X b|| / sqrt(n) * z."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(n, p)))[0]
    v = np.linalg.qr(rng.normal(size=(p, p)))[0]
    z = (q * np.logspace(0, -log_kappa / 2, p)) @ v.T
    x = z / np.linalg.norm(z, axis=0) * 10.0 ** rng.uniform(-spread, spread, size=p)
    signal = x @ rng.normal(size=p)
    return x, signal + noise * np.linalg.norm(signal) / np.sqrt(n) * rng.normal(size=n)


@st.composite
def _gram_designs(draw):
    """Well-conditioned to near-threshold designs, kappa(X'X) from 1 to
    about 1e8 before column scales spread over 10^-3 to 10^3, with exact,
    nearly exact and noisy outcomes."""
    p = draw(st.integers(1, 8))
    return _gram_design(
        draw(st.integers(p, 200)), p, draw(st.floats(0.0, 8.0)), draw(st.floats(0.0, 3.0)),
        draw(st.sampled_from([0.0, 1e-12, 1e-6, 1.0])), draw(st.integers(0, 2**32 - 1)),
    )


def _check_gram_fit(x, y, fit):
    """The checks on a certified_lstsq fit of y on x: r'r = x'x, the pivoted
    QR's rank rule finds full rank, and b matches an unpivoted QR solve."""
    n, p = x.shape
    b, r = fit
    np.testing.assert_allclose(r.T @ r, x.T @ x, rtol=1e-12, atol=1e-12 * np.abs(x.T @ x).max())
    assert _rank_check_names(x, [str(j) for j in range(p)]) == []
    # per unit-norm column, against an unpivoted QR solve
    norms = np.linalg.norm(x, axis=0)
    xs = x / norms
    q, rs = qr(xs, mode="economic")
    _assert_within_lstsq_bound(xs, y, b * norms, solve_triangular(rs, q.T @ y))


@settings(max_examples=300, deadline=None)
@given(_gram_designs())
@example(_gram_design(40, 6, 7.5, 0.0, 0.0, 1))
@example(_gram_design(200, 8, 6.0, 0.5, 1e-12, 2))
def test_certified_gram_fit_matches_qr(design):
    x, y = design
    fit = certified_lstsq(x, y)
    if fit is not None:
        _check_gram_fit(x, y, fit)


# The unscaled x'x has rcond 7e-10 and 2e-15 here, below sqrt(eps) and below
# 20 p max(n, p) eps (1.8e-8 in the first row, p max(n, p) = 4e6): either
# rule on the rcond of x'x itself would refuse these designs, which are well
# conditioned once their columns are scaled.
@pytest.mark.parametrize("n, p, log_kappa, spread", [(200_000, 20, 2.0, 4.0), (300, 5, 4.0, 6.0)])
def test_column_scales_and_long_designs_keep_the_certificate(n, p, log_kappa, spread):
    x, y = _gram_design(n, p, log_kappa, 0.0, 1.0, 3)
    x *= np.logspace(-spread / 2, spread / 2, p)
    fit = certified_lstsq(x, y)
    assert fit is not None
    _check_gram_fit(x, y, fit)


def _gwas_design(n, k):
    data = gen_gwas(n=n, k=k, m=3, seed=0)
    return data.treatments, data.y


def _raw_unit_design(mean, sd):
    """Continuous treatments in raw units, T ~ N(mean, sd), n = 1000, k = 3.
    [1, T, T^2] has kappa(x'x) from 5e8 to 5e16 at the means and sds of
    test_well_conditioned_designs_take_one_cholesky_and_no_qr, and below 1e6
    once its columns are scaled."""
    rng = np.random.default_rng(5)
    t = rng.normal(mean, sd, size=(1000, 3))
    return TreatmentMatrix(t), (t - mean) @ np.array([1.0, -0.5, 0.2]) / sd + rng.normal(size=1000)


def _count_solver_calls(monkeypatch) -> dict:
    """Counts of the Cholesky, QR and SVD least-squares calls from now on."""
    calls = {"dpotrf": 0, "qr_multiply": 0, "lstsq": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)

        monkeypatch.setattr(module, name, wrapper)

    # mtsens imports these on use, so patching scipy's names reaches it
    counted(scipy.linalg.lapack, "dpotrf")
    counted(scipy.linalg, "qr_multiply")
    counted(np.linalg, "lstsq")
    return calls


# the four benchmark shapes, then raw-unit treatments; no silent fallback
# to the pivoted QR or the SVD
@pytest.mark.parametrize("make, args", [
    (_gwas_design, (2500, 500)), (_gwas_design, (2000, 200)), (_gwas_design, (1000, 100)),
    (_gwas_design, (500, 20)), (_raw_unit_design, (100.0, 30.0)),
    (_raw_unit_design, (100.0, 10.0)), (_raw_unit_design, (10.0, 1.0)),
    (_raw_unit_design, (1000.0, 100.0)),
])
def test_well_conditioned_designs_take_one_cholesky_and_no_qr(monkeypatch, make, args):
    tm, y = make(*args)
    calls = _count_solver_calls(monkeypatch)
    fit_linear(tm, y)
    assert calls == {"dpotrf": 1, "qr_multiply": 0, "lstsq": 0}
    fit_empirical(tm, y, degree=2)
    assert calls == {"dpotrf": 2, "qr_multiply": 0, "lstsq": 0}


# Treatments whose mean is 1e4 to 1e8 times their sd: [1, T] with unit-norm
# columns has kappa 4e4 to 4e8, past the certificate of its own Gram, but
# the centered Gram fit_linear solves has equilibrated rcond 0.8. At
# (1e8, 1) the pivoted QR of the unscaled [1, T] also names the intercept
# as dependent, and the centered fit certifies the design.
@pytest.mark.parametrize("mean, sd", [(1000.0, 0.1), (100.0, 0.01), (1e8, 1.0)])
def test_raw_unit_treatments_take_the_centered_cholesky(monkeypatch, mean, sd):
    tm, y = _raw_unit_design(mean, sd)
    calls = _count_solver_calls(monkeypatch)
    out = fit_linear(tm, y)
    assert calls == {"dpotrf": 1, "qr_multiply": 0, "lstsq": 0}
    # per unit-norm column, against a pivoted QR solve
    x = np.column_stack([np.ones(tm.n), tm.data])
    norms = np.linalg.norm(x, axis=0)
    xs = x / norms
    q, r, piv = qr(xs, mode="economic", pivoting=True)
    ref = np.zeros(x.shape[1])
    ref[piv] = solve_triangular(r, q.T @ y)
    got = np.concatenate([[out.intercept], out.tau_naive]) * norms
    _assert_within_lstsq_bound(xs, y, got, ref)


def test_certified_gram_refuses_a_zero_column_before_factoring(monkeypatch):
    # a constant column whose mean is exact centers to zeros: the
    # equilibration would divide by zero, so no factorization is tried
    t = np.random.default_rng(3).normal(size=(40, 3))
    t[:, 1] = 1.0
    means, cov = mtsens.factor._moments(TreatmentMatrix(t))
    assert cov[1, 1] == 0.0
    calls = _count_solver_calls(monkeypatch)
    assert certified_gram(cov, 40, intercept=True) is None
    assert calls["dpotrf"] == 0


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



# --- scipy.stats.norm replacements --------------------------------------------

# finite values of every size, the probit tails, +-0, +-inf and NaN
_REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-40.0, max_value=40.0),
    st.sampled_from([0.0, -0.0, 1e-300, -38.5, 8.3, 1e200, -1e308, math.inf, -math.inf, math.nan]),
)
_PROBS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, math.nan]),
)


def _shapes(values):
    """The values as a python float, a numpy scalar, a 0-d array and a 1-d array."""
    return [values[0], np.float64(values[0]), np.array(values[0]), np.array(values)]


def _assert_same_bits(ours, ref):
    assert type(ours) is type(ref)
    a, b = np.asarray(ours), np.asarray(ref)
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(b)
    assert np.array_equal(np.isnan(a), nan)
    assert a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3),
    st.floats(min_value=-3.0, max_value=3.0),
    st.lists(st.lists(_REALS, min_size=3, max_size=3), min_size=1, max_size=6),
)
def test_mu_y_is_scipy_norm_cdf_bit_for_bit(coef, intercept, rows):
    out = BinaryOutcome(probit_coef=np.array(coef), probit_intercept=intercept, p_y1=0.5)
    t = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for arg in (t, t[0]):
            ref = norm.cdf(out.probit_intercept + arg @ out.probit_coef)
            _assert_same_bits(out.mu_y(arg), ref)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-6, max_value=1e6),
    st.lists(_REALS, min_size=1, max_size=12),
    st.lists(_PROBS, min_size=1, max_size=12),
)
def test_gaussian_cdf_quantile_are_scipy_norm_bit_for_bit(intercept, sigma2, ys, ps):
    model = GaussianOutcome(tau_naive=np.array([0.7, -1.3]), intercept=intercept,
                            sigma2_y_given_t=sigma2)
    t = np.array([0.25, -2.0])
    cdf, quantile = conditional_cdf_quantile(model, t)
    mu, sd = float(model.mean(t)), model.sigma()
    with np.errstate(over="ignore", invalid="ignore"):
        for y in _shapes(ys):
            _assert_same_bits(cdf(y), norm.cdf((np.asarray(y, dtype=float) - mu) / sd))
        for p in _shapes(ps):
            _assert_same_bits(quantile(p), mu + sd * norm.ppf(np.asarray(p, dtype=float)))
