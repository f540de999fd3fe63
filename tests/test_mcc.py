import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtsens.mcc as mcc_module
from mtsens import (
    CalibrationError,
    ConditionalConfounder,
    ConvergenceError,
    ContrastBank,
    Contrast,
    DegenerateModelError,
    DimensionError,
    GaussianOutcome,
    InputFormatError,
    SensitivitySpec,
    build_bank_unitwise,
    gamma_from_r2_direction,
    mcc_minimize,
    mcc_report,
    pate_vector,
    robustness_value,
    worst_case_direction,
)
from mtsens._linalg import nnls


def _inv_sqrt(sigma):
    vals, vecs = np.linalg.eigh(sigma)
    return vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T


def _random_bank(seed, n_contrasts=6, m=2, sigma_y=1.3):
    rng = np.random.default_rng(seed)
    deltas = rng.normal(size=(n_contrasts, m))
    raw = rng.normal(size=(m, m))
    sigma = raw @ raw.T / m + 0.15 * np.eye(m)
    sigma /= np.linalg.eigvalsh(sigma).max() * 1.8
    naive = rng.normal(size=n_contrasts)
    return ContrastBank(
        deltas=deltas, naive=naive, sigma_y_given_t=sigma_y, sigma_u_given_t=sigma
    )


def test_build_bank_unitwise_layout():
    cc = ConditionalConfounder(
        coef=np.array([[0.4, 0.1, -0.2], [0.0, 0.3, 0.5]]),
        sigma_u_given_t=np.diag([0.2, 0.3]),
    )
    outcome = GaussianOutcome(
        tau_naive=np.array([1.0, -0.5, 2.0]), intercept=0.0, sigma2_y_given_t=4.0
    )
    bank = build_bank_unitwise(cc, None, outcome)
    assert np.allclose(bank.deltas, cc.coef.T, atol=1e-12)
    assert np.allclose(bank.naive, outcome.tau_naive, atol=1e-12)
    assert bank.sigma_y_given_t == pytest.approx(2.0, abs=1e-12)
    assert bank.ids == ("t1", "t2", "t3")


def test_build_bank_subset_indices():
    cc = ConditionalConfounder(
        coef=np.array([[0.4, 0.1, -0.2]]), sigma_u_given_t=np.array([[0.2]])
    )
    outcome = GaussianOutcome(
        tau_naive=np.array([1.0, -0.5, 2.0]), intercept=0.0, sigma2_y_given_t=1.0
    )
    bank = build_bank_unitwise(cc, None, outcome, treatment_indices=[2, 0])
    assert bank.n_contrasts == 2
    assert np.allclose(bank.naive, [2.0, 1.0])
    assert bank.ids == ("t3", "t1")


def test_pate_vector_zero_gamma():
    bank = _random_bank(0)
    spec = SensitivitySpec.from_gamma(np.zeros(2), bank.sigma_u_given_t)
    assert np.allclose(pate_vector(bank, spec), bank.naive, atol=1e-15)


def test_pate_vector_affine_superposition():
    bank = _random_bank(1)
    rng = np.random.default_rng(2)
    g1 = 0.2 * rng.normal(size=2)
    g2 = 0.2 * rng.normal(size=2)
    s = bank.sigma_u_given_t
    p1 = pate_vector(bank, SensitivitySpec.from_gamma(g1, s))
    p2 = pate_vector(bank, SensitivitySpec.from_gamma(g2, s))
    p12 = pate_vector(bank, SensitivitySpec.from_gamma(g1 + g2, s))
    assert np.allclose(p1 + p2 - bank.naive, p12, atol=1e-12)


def test_pate_vector_dimension_mismatch():
    bank = _random_bank(3)
    spec = SensitivitySpec.from_gamma(np.zeros(3), np.eye(3) * 0.1)
    with pytest.raises(DimensionError):
        pate_vector(bank, spec)


def test_pate_zeroed_at_robustness_value():
    # with the worst-case direction at r2 equal to the robustness value,
    # the adjusted effect crosses exactly zero
    cc = ConditionalConfounder(
        coef=np.array([[0.4, 0.0]]), sigma_u_given_t=np.array([[0.2]])
    )
    naive = math.sqrt(0.2)
    outcome = GaussianOutcome(
        tau_naive=np.array([naive, 0.0]), intercept=0.0, sigma2_y_given_t=1.0
    )
    bank = build_bank_unitwise(cc, None, outcome, treatment_indices=[0])
    c = Contrast.unit(2, 0)
    rv = robustness_value(naive, cc, 1.0, c)
    d = worst_case_direction(cc, c)
    spec = gamma_from_r2_direction(rv.value, d.direction, cc.sigma_u_given_t)
    adjusted = pate_vector(bank, spec)
    assert adjusted[0] == pytest.approx(0.0, abs=1e-12)


def test_l2_interior_solution_reaches_zero_norm():
    # a single contrast can always be explained away once the cap clears
    # its robustness value, so the constrained optimum goes interior
    bank = ContrastBank(
        deltas=np.array([[0.4]]),
        naive=np.array([math.sqrt(0.2)]),
        sigma_y_given_t=1.0,
        sigma_u_given_t=np.array([[0.2]]),
    )
    res = mcc_minimize(bank, norm="l2", r2_cap=0.5)
    assert res.achieved_norm == pytest.approx(0.0, abs=1e-10)
    assert res.achieved_r2 <= 0.5 + 1e-10
    assert res.lambda_star == 0.0


def test_l2_boundary_kkt_and_feasibility():
    bank = _random_bank(7, n_contrasts=8, m=3)
    cap = 0.02
    res = mcc_minimize(bank, norm="l2", r2_cap=cap)
    assert res.achieved_r2 <= cap + 1e-8
    root_inv = _inv_sqrt(bank.sigma_u_given_t)
    g = bank.sigma_y_given_t * (bank.deltas @ root_inv)
    z = np.linalg.inv(root_inv) @ res.gamma_star
    lam = res.lambda_star
    assert lam > 0
    kkt = (g.T @ g + lam * np.eye(3)) @ z - g.T @ bank.naive
    assert np.linalg.norm(kkt) < 1e-8 * max(np.linalg.norm(g.T @ bank.naive), 1.0)
    assert float(z @ z) == pytest.approx(cap, abs=1e-6)


def test_zero_cap_returns_naive_norm():
    bank = _random_bank(9)
    for norm in ("l1", "l2", "linf"):
        res = mcc_minimize(bank, norm=norm, r2_cap=0.0)
        assert np.allclose(res.gamma_star, 0.0)
        expected = {
            "l1": np.abs(bank.naive).sum(),
            "l2": np.linalg.norm(bank.naive),
            "linf": np.abs(bank.naive).max(),
        }[norm]
        assert res.achieved_norm == pytest.approx(float(expected), abs=1e-12)


def test_l1_beats_or_matches_l2_competitor():
    bank = _random_bank(11, n_contrasts=7, m=2)
    cap = 0.3
    res_l2 = mcc_minimize(bank, norm="l2", r2_cap=cap)
    res_l1 = mcc_minimize(bank, norm="l1", r2_cap=cap)
    l1_of_l2 = float(np.abs(pate_vector(
        bank, SensitivitySpec.from_gamma(res_l2.gamma_star, bank.sigma_u_given_t)
    )).sum())
    assert res_l1.achieved_norm <= l1_of_l2 + 1e-5
    assert res_l1.achieved_r2 <= cap + 1e-8


def test_subgradient_restarts_agree():
    bank = _random_bank(13, n_contrasts=5, m=2)
    vals = [
        mcc_minimize(bank, norm="l1", r2_cap=0.4).achieved_norm
        for _ in range(3)
    ]
    assert max(vals) - min(vals) <= 2e-5
    rerun = mcc_minimize(bank, norm="l1", r2_cap=0.4)
    first = mcc_minimize(bank, norm="l1", r2_cap=0.4)
    assert np.array_equal(rerun.gamma_star, first.gamma_star)


def test_achieved_norm_monotone_in_cap():
    bank = _random_bank(17, n_contrasts=6, m=2)
    for norm in ("l1", "l2", "linf"):
        vals = [
            mcc_minimize(bank, norm=norm, r2_cap=cap).achieved_norm
            for cap in (0.0, 0.1, 0.3, 0.6, 1.0)
        ]
        # each L1/Linf value is certified to a 1e-9 relative duality gap
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-4


def _scalar_candidates_l1(naive, g, radius):
    kinks = [naive[i] / g[i] for i in range(len(g)) if abs(g[i]) > 1e-14]
    cands = [min(max(z, -radius), radius) for z in kinks] + [-radius, radius, 0.0]
    return min(np.abs(naive - g * z).sum() for z in cands)


def _scalar_candidates_linf(naive, g, radius):
    cands = [-radius, radius, 0.0]
    for i in range(len(g)):
        if abs(g[i]) > 1e-14:
            cands.append(naive[i] / g[i])
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            for sign in (1.0, -1.0):
                denom = g[i] - sign * g[j]
                if abs(denom) > 1e-14:
                    cands.append((naive[i] - sign * naive[j]) / denom)
    cands = [min(max(z, -radius), radius) for z in cands]
    return min(np.abs(naive - g * z).max() for z in cands)


def test_l1_scalar_instance_exact():
    # m=1 turns the optimization into a piecewise-linear scalar problem whose
    # minimum sits at a kink or the ball boundary
    naive = np.array([1.0, -0.4])
    deltas = np.array([[0.5], [0.3]])
    sigma = np.array([[0.25]])
    bank = ContrastBank(
        deltas=deltas, naive=naive, sigma_y_given_t=1.2, sigma_u_given_t=sigma
    )
    cap = 0.5
    radius = math.sqrt(cap)
    g = 1.2 * deltas[:, 0] / math.sqrt(0.25)
    oracle = _scalar_candidates_l1(naive, g, radius)
    res = mcc_minimize(bank, norm="l1", r2_cap=cap)
    assert res.achieved_norm == pytest.approx(oracle, abs=2e-5)


def test_linf_scalar_instance_exact():
    naive = np.array([1.0, -0.4, 0.2])
    deltas = np.array([[0.5], [0.3], [-0.6]])
    sigma = np.array([[0.25]])
    bank = ContrastBank(
        deltas=deltas, naive=naive, sigma_y_given_t=1.2, sigma_u_given_t=sigma
    )
    cap = 0.4
    radius = math.sqrt(cap)
    g = 1.2 * deltas[:, 0] / math.sqrt(0.25)
    oracle = _scalar_candidates_linf(naive, g, radius)
    res = mcc_minimize(bank, norm="linf", r2_cap=cap)
    assert res.achieved_norm == pytest.approx(oracle, abs=2e-5)


def test_mcc_report_matches_pate():
    bank = _random_bank(19)
    res = mcc_minimize(bank, norm="l2", r2_cap=0.3)
    rows = mcc_report(bank, res.gamma_star)
    adjusted = pate_vector(
        bank, SensitivitySpec.from_gamma(res.gamma_star, bank.sigma_u_given_t)
    )
    assert len(rows) == bank.n_contrasts
    for row, adj, nv in zip(rows, adjusted, bank.naive):
        assert row.adjusted == pytest.approx(float(adj), abs=1e-12)
        assert row.naive == pytest.approx(float(nv), abs=1e-12)
        assert row.shrinkage_ratio == pytest.approx(float(adj / nv), abs=1e-12)


def test_mcc_report_zero_naive_ratio_nan():
    bank = ContrastBank(
        deltas=np.array([[0.4], [0.2]]),
        naive=np.array([0.0, 1.0]),
        sigma_y_given_t=1.0,
        sigma_u_given_t=np.array([[0.2]]),
    )
    rows = mcc_report(bank, np.array([0.5]))
    assert math.isnan(rows[0].shrinkage_ratio)
    assert math.isfinite(rows[1].shrinkage_ratio)


def test_mcc_minimize_validation():
    bank = _random_bank(23)
    with pytest.raises(ValueError):
        mcc_minimize(bank, norm="l3")
    with pytest.raises(InputFormatError):
        mcc_minimize(bank, norm="l3")
    with pytest.raises(CalibrationError):
        mcc_minimize(bank, r2_cap=1.5)
    singular = ContrastBank(
        deltas=np.array([[0.4, 0.1]]),
        naive=np.array([1.0]),
        sigma_y_given_t=1.0,
        sigma_u_given_t=np.diag([0.2, 0.0]),
    )
    with pytest.raises(DegenerateModelError):
        mcc_minimize(singular, norm="l2", r2_cap=0.5)


def _grid_values(naive, g, z, norm):
    resid = np.abs(naive[:, None] - g @ z)
    return resid.sum(axis=0) if norm == "l1" else resid.max(axis=0)


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("seed", [29, 37])
def test_polar_grid_oracle_m2(norm, seed):
    # a 400 x 400 polar grid over the whitened ball brackets the minimum:
    # no grid value beats it, and none is further above it than the
    # objective's Lipschitz constant times the grid's covering radius; a
    # 401 x 401 grid around the best grid point, projected onto the ball,
    # then tightens the upper side
    bank = _random_bank(seed, n_contrasts=6, m=2)
    cap = 0.3
    res = mcc_minimize(bank, norm=norm, r2_cap=cap)
    g = bank.sigma_y_given_t * (bank.deltas @ _inv_sqrt(bank.sigma_u_given_t))
    radius = math.sqrt(cap)
    rho = np.linspace(0.0, radius, 400)
    theta = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    z = np.stack([np.outer(rho, np.cos(theta)).ravel(), np.outer(rho, np.sin(theta)).ravel()])
    vals = _grid_values(bank.naive, g, z, norm)
    rows = np.linalg.norm(g, axis=1)
    lipschitz = rows.sum() if norm == "l1" else rows.max()
    cover = math.hypot(0.5 * radius / 399, radius * math.pi / 400)
    oracle = float(vals.min())
    offsets = np.linspace(-2.0 * cover, 2.0 * cover, 401)
    local = z[:, [int(vals.argmin())]] + np.stack(
        [np.repeat(offsets, 401), np.tile(offsets, 401)]
    )
    local *= np.minimum(1.0, radius / np.linalg.norm(local, axis=0))
    local_oracle = min(oracle, float(_grid_values(bank.naive, g, local, norm).min()))
    tol = 1e-9 * max(1.0, res.achieved_norm)
    assert oracle - lipschitz * cover <= res.achieved_norm <= local_oracle + tol
    assert 0.0 <= res.duality_gap <= tol
    assert res.achieved_r2 <= cap + 1e-8


def test_primal_dual_iteration_limit_raises():
    bank = _random_bank(41, n_contrasts=8, m=2)
    with pytest.raises(ConvergenceError) as info:
        mcc_minimize(bank, norm="l1", r2_cap=0.3, max_iter=1)
    assert info.value.last_iterate.shape == (2,)


def _whitened(bank):
    return bank.sigma_y_given_t * (bank.deltas @ _inv_sqrt(bank.sigma_u_given_t))


def _lp_optimum(naive, g, norm):
    """Unconstrained LAD (L1) or Chebyshev (Linf) fit of naive by g z, as a
    linear program; returns its z."""
    from scipy.optimize import linprog

    n_contrasts, m = g.shape
    n_slack = n_contrasts if norm == "l1" else 1
    slack = np.eye(n_contrasts) if norm == "l1" else np.ones((n_contrasts, 1))
    res = linprog(
        np.r_[np.zeros(m), np.ones(n_slack)],
        A_ub=np.block([[-g, -slack], [g, -slack]]),
        b_ub=np.r_[-naive, naive],
        bounds=[(None, None)] * m + [(0.0, None)] * n_slack,
        method="highs",
    )
    assert res.status == 0
    return res.x[:m]


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("seed", range(8))
def test_interior_optimum_matches_linear_program_m3(norm, seed):
    # the deltas are scaled so that the LP optimum has whitened norm 0.5,
    # inside the unit ball: the constrained optimum is the LP's, whose
    # value is taken at the LP's z (HiGHS' own objective is rounded to its
    # feasibility tolerance)
    rng = np.random.default_rng(seed)
    n_contrasts = int(rng.integers(4, 31))
    bank = _random_bank(100 + seed, n_contrasts=n_contrasts, m=3)
    z_lp = _lp_optimum(bank.naive, _whitened(bank), norm)
    bank = ContrastBank(
        deltas=bank.deltas * (2.0 * np.linalg.norm(z_lp)),
        naive=bank.naive,
        sigma_y_given_t=bank.sigma_y_given_t,
        sigma_u_given_t=bank.sigma_u_given_t,
    )
    g = _whitened(bank)
    z_lp = _lp_optimum(bank.naive, g, norm)
    assert float(z_lp @ z_lp) < 0.3
    order = 1 if norm == "l1" else np.inf
    oracle = float(np.linalg.norm(bank.naive - g @ z_lp, order))
    res = mcc_minimize(bank, norm=norm, r2_cap=1.0)
    assert res.achieved_norm == pytest.approx(oracle, rel=1e-9)
    assert 0.0 <= res.duality_gap <= 1e-9 * max(1.0, res.achieved_norm)


@settings(max_examples=150, deadline=None)
@given(
    n_contrasts=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["plain", "rank_deficient", "duplicated", "integer", "zero_row"]),
    cap=st.floats(min_value=1e-6, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_certificate_holds_on_degenerate_banks(n_contrasts, m, kind, cap, seed):
    # rank-deficient deltas (a repeated column), duplicated contrasts,
    # integer data (ties among residuals) and zero rows all keep the
    # returned point feasible and certified, and no worse than the L2 point
    rng = np.random.default_rng(seed)
    deltas = rng.normal(size=(n_contrasts, m))
    naive = rng.normal(size=n_contrasts)
    if kind == "rank_deficient" and m > 1:
        deltas[:, -1] = rng.normal() * deltas[:, 0]
    elif kind == "duplicated":
        rows = rng.integers(0, n_contrasts, size=n_contrasts)
        deltas, naive = deltas[rows], naive[rows]
    elif kind == "integer":
        deltas, naive = np.round(deltas), np.round(naive)
    elif kind == "zero_row":
        deltas[0] = 0.0
    raw = rng.normal(size=(m, m))
    bank = ContrastBank(
        deltas=deltas,
        naive=naive,
        sigma_y_given_t=1.3,
        sigma_u_given_t=raw @ raw.T / m + 0.2 * np.eye(m),
    )
    g = _whitened(bank)
    z_l2 = np.linalg.inv(_inv_sqrt(bank.sigma_u_given_t)) @ mcc_minimize(
        bank, norm="l2", r2_cap=cap
    ).gamma_star
    for norm, order in (("l1", 1), ("linf", np.inf)):
        res = mcc_minimize(bank, norm=norm, r2_cap=cap)
        tol = 1e-9 * max(1.0, res.achieved_norm)
        assert res.achieved_r2 <= cap * (1.0 + 1e-12)
        assert 0.0 <= res.duality_gap <= tol
        at_l2 = float(np.linalg.norm(bank.naive - g @ z_l2, order))
        assert res.achieved_norm <= at_l2 + tol + 1e-12 * max(1.0, at_l2)


def _degenerate_bank(n_contrasts, m, kind, seed):
    """The bank that test_certificate_holds_on_degenerate_banks draws."""
    rng = np.random.default_rng(seed)
    deltas = rng.normal(size=(n_contrasts, m))
    naive = rng.normal(size=n_contrasts)
    if kind == "rank_deficient" and m > 1:
        deltas[:, -1] = rng.normal() * deltas[:, 0]
    elif kind == "duplicated":
        rows = rng.integers(0, n_contrasts, size=n_contrasts)
        deltas, naive = deltas[rows], naive[rows]
    elif kind == "integer":
        deltas, naive = np.round(deltas), np.round(naive)
    elif kind == "zero_row":
        deltas[0] = 0.0
    raw = rng.normal(size=(m, m))
    return ContrastBank(
        deltas=deltas,
        naive=naive,
        sigma_y_given_t=1.3,
        sigma_u_given_t=raw @ raw.T / m + 0.2 * np.eye(m),
    )


@settings(max_examples=100, deadline=None)
@given(
    n_contrasts=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["plain", "rank_deficient", "duplicated", "integer", "zero_row"]),
    cap=st.floats(min_value=1e-6, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dual_multipliers_match_scipy_nnls_at_full_column_rank(n_contrasts, m, kind, cap, seed):
    # the multiplier systems that the dual candidates solve: where one has
    # full column rank its solution is unique, and the numpy active-set
    # solve must return scipy's
    from scipy.optimize import nnls as scipy_nnls

    bank = _degenerate_bank(n_contrasts, m, kind, seed)
    systems = []

    def spy(a, b):
        x, rnorm = nnls(a, b)
        systems.append((a.copy(), b.copy(), x))
        return x, rnorm

    with mock.patch.object(mcc_module, "nnls", spy):
        for norm in ("l1", "linf"):
            mcc_minimize(bank, norm=norm, r2_cap=cap)
    for a, b, x in systems:
        if np.linalg.matrix_rank(a) == a.shape[1]:
            np.testing.assert_allclose(x, scipy_nnls(a, b)[0], rtol=1e-10, atol=1e-10)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=1, max_value=12),
    edits=st.lists(st.sampled_from(["duplicate", "zero", "dependent", "integer"]), max_size=3),
    rhs=st.sampled_from(["any", "cone", "polar"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_nnls_meets_kkt_and_matches_scipy(m, n, edits, rhs, seed):
    # duplicate, zero and dependent columns; b anywhere, inside the cone of
    # the columns, or in its polar cone, where x = 0
    from scipy.optimize import nnls as scipy_nnls

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    for edit in edits:
        i, j, k = rng.integers(0, n, size=3)
        if edit == "duplicate":
            a[:, i] = a[:, j]
        elif edit == "zero":
            a[:, i] = 0.0
        elif edit == "dependent":
            a[:, i] = rng.normal() * a[:, j] + rng.normal() * a[:, k]
        else:
            a = np.round(a)
    b = rng.normal(size=m)
    if rhs == "cone":
        b = a @ (np.abs(rng.normal(size=n)) * (rng.random(n) < 0.5))
    elif rhs == "polar":
        # negating the columns with a_j'b > 0 leaves a'b <= 0
        a[:, a.T @ b > 0.0] *= -1.0
    x, rnorm = nnls(a, b)
    assert np.all(x >= 0.0)
    if rhs == "polar":
        assert not x.any()
    # b - a x is known to eps times this, and w = a'(b - a x) to ||a|| times
    # that: KKT is w <= 0 and x'w = 0 at that scale
    scale = np.linalg.norm(b) + np.linalg.norm(a, 2) * np.linalg.norm(x)
    w = a.T @ (b - a @ x)
    assert w.max() <= 1e-12 * np.linalg.norm(a, 2) * scale
    assert abs(x @ w) <= 1e-12 * np.linalg.norm(a, 2) * scale * np.linalg.norm(x)
    assert abs(rnorm - scipy_nnls(a, b)[1]) <= 1e-12 * scale


@pytest.mark.parametrize(
    "norm, deltas, naive",
    [
        (
            "l1",
            [[0, 2, 1], [2, 2, 0], [1, 0, 2], [0, 0, 0], [0, -1, -1], [0, 0, 1], [0, 0, 2]],
            [0, 1, 0, 1, 0, -2, -1],
        ),
        (
            "linf",
            [[0, 0], [1, 1], [0, 0], [1, -1], [-1, 0], [-1, 0], [1, 2], [1, 1], [0, -1],
             [3, -1]],
            [0, -2, -1, 1, -1, -1, -1, 1, 0, 2],
        ),
    ],
)
def test_flat_optimal_face_is_certified(norm, deltas, naive):
    # integer data whose optimum is a whole face: the barrier converges to
    # its interior, where no sorted prefix of rows is a vertex, so the
    # crossover must project the barrier point onto the face
    bank = ContrastBank(
        deltas=np.array(deltas, dtype=float),
        naive=np.array(naive, dtype=float),
        sigma_y_given_t=1.0,
        sigma_u_given_t=np.eye(len(deltas[0])),
    )
    res = mcc_minimize(bank, norm=norm, r2_cap=1.0)
    assert 0.0 <= res.duality_gap <= 1e-9 * max(1.0, res.achieved_norm)
    z_lp = _lp_optimum(bank.naive, _whitened(bank), norm)
    if float(z_lp @ z_lp) <= 1.0:
        order = 1 if norm == "l1" else np.inf
        oracle = float(np.linalg.norm(bank.naive - _whitened(bank) @ z_lp, order))
        assert res.achieved_norm == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_all_norms_reparameterization_invariant(seed):
    # (coef, Sigma) -> (A coef, A Sigma A') rotates the whitened problem, so
    # every norm's optimum is unchanged
    rng = np.random.default_rng(seed)
    m, k = 3, 12
    raw = rng.normal(size=(m, m))
    cc = ConditionalConfounder(
        coef=rng.normal(size=(m, k)), sigma_u_given_t=raw @ raw.T / m + 0.3 * np.eye(m)
    )
    outcome = GaussianOutcome(
        tau_naive=rng.normal(size=k), intercept=0.0, sigma2_y_given_t=1.7
    )
    a = rng.normal(size=(m, m)) + 2.0 * np.eye(m)
    bank = build_bank_unitwise(cc, None, outcome)
    bank2 = build_bank_unitwise(cc.reparameterized(a), None, outcome)
    for norm in ("l1", "l2", "linf"):
        for cap in (0.05, 0.5, 1.0):
            v1 = mcc_minimize(bank, norm=norm, r2_cap=cap).achieved_norm
            v2 = mcc_minimize(bank2, norm=norm, r2_cap=cap).achieved_norm
            assert v2 == pytest.approx(v1, rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_l2_secular_solution_is_the_constrained_minimizer(seed):
    # the boundary solution satisfies (G'G + lam I) z = G'a with lam >= 0
    # and ||z|| = r, and no point of the sphere does better
    bank = _random_bank(200 + seed, n_contrasts=9, m=3)
    g = _whitened(bank)
    cap = 0.01
    res = mcc_minimize(bank, norm="l2", r2_cap=cap)
    z = np.linalg.inv(_inv_sqrt(bank.sigma_u_given_t)) @ res.gamma_star
    assert res.lambda_star > 0.0
    kkt = (g.T @ g + res.lambda_star * np.eye(3)) @ z - g.T @ bank.naive
    assert np.linalg.norm(kkt) < 1e-10 * max(1.0, np.linalg.norm(g.T @ bank.naive))
    assert float(z @ z) == pytest.approx(cap, rel=1e-12)
    rng = np.random.default_rng(seed)
    others = rng.normal(size=(3, 2000))
    others *= math.sqrt(cap) / np.linalg.norm(others, axis=0)
    values = np.linalg.norm(bank.naive[:, None] - g @ others, axis=0)
    assert res.achieved_norm <= values.min() + 1e-12
