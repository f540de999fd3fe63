import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from mtsens import (
    BinaryOutcome,
    CalibrationError,
    DimensionError,
    SensitivitySpec,
    SeparationError,
    TreatmentMatrix,
    benchmark_table,
    fit_probit,
    gamma_from_r2_direction,
    gamma_from_signed_r2,
    gen_gwas,
    implicit_r2,
    partial_r2_treatment,
)
from mtsens.calibrate import _implicit_r2_of_fit

SIGMA_SCALAR = np.array([[0.2]])


def test_gamma_magnitude_scalar():
    spec = gamma_from_r2_direction(0.36, np.array([1.0]), SIGMA_SCALAR)
    assert spec.gamma[0] == pytest.approx(0.6 / math.sqrt(0.2), abs=1e-12)
    assert spec.gamma[0] == pytest.approx(1.3416407864998738, abs=1e-12)


def test_gamma_r2_round_trip():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(3, 3))
    sigma = raw @ raw.T / 6 + 0.1 * np.eye(3)
    sigma /= np.linalg.eigvalsh(sigma).max() * 2
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    for r2 in (0.0, 0.2, 0.9, 1.0):
        spec = gamma_from_r2_direction(r2, d, sigma)
        assert SensitivitySpec.from_gamma(spec.gamma, sigma).r2 == pytest.approx(r2, abs=1e-12)


def test_gamma_rejects_non_unit_direction():
    with pytest.raises(CalibrationError):
        gamma_from_r2_direction(0.5, np.array([1.0, 1.0]), np.eye(2))


def test_signed_r2_flips_direction():
    pos = gamma_from_signed_r2(0.36, np.array([1.0]), SIGMA_SCALAR)
    neg = gamma_from_signed_r2(-0.36, np.array([1.0]), SIGMA_SCALAR)
    assert neg.gamma[0] == pytest.approx(-pos.gamma[0], abs=1e-12)
    assert SensitivitySpec.from_gamma(neg.gamma, SIGMA_SCALAR).r2 == pytest.approx(0.36, abs=1e-12)


def test_r2_of_gamma_rejects_excess():
    with pytest.raises(CalibrationError):
        SensitivitySpec.from_gamma(np.array([3.0]), SIGMA_SCALAR)


def test_partial_r2_exact_fit_column():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(400, 3))
    tm = TreatmentMatrix(data)
    y = data[:, 1].copy()
    assert partial_r2_treatment(tm, y, 1) == pytest.approx(1.0, abs=1e-9)


def test_partial_r2_irrelevant_column():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4000, 3))
    y = data[:, 0] + rng.normal(size=4000)
    tm = TreatmentMatrix(data)
    assert partial_r2_treatment(tm, y, 2) < 0.01


def test_partial_r2_two_column_oracle():
    # y = 2 T1 + T2 + eps with independent unit-variance treatments:
    # residual variance after T2 is 4 + 1, T1 explains 4 of it
    rng = np.random.default_rng(11)
    n = 100000
    data = rng.normal(size=(n, 2))
    y = 2.0 * data[:, 0] + data[:, 1] + rng.normal(size=n)
    tm = TreatmentMatrix(data)
    assert partial_r2_treatment(tm, y, 0) == pytest.approx(0.8, abs=0.02)


def test_partial_r2_group_of_columns():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(2000, 4))
    y = data[:, 0] - data[:, 3] + rng.normal(size=2000)
    tm = TreatmentMatrix(data)
    both = partial_r2_treatment(tm, y, [0, 3])
    assert both > partial_r2_treatment(tm, y, 0)
    assert both > 0.5


def test_partial_r2_degenerate_restricted_fit():
    data = np.column_stack([np.arange(6.0), np.arange(6.0) * 2.0])
    tm = TreatmentMatrix(data)
    y = data[:, 0].copy()
    with pytest.raises(CalibrationError):
        partial_r2_treatment(tm, y, 1)


def test_partial_r2_bad_column():
    tm = TreatmentMatrix(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(DimensionError):
        partial_r2_treatment(tm, np.zeros(10), 5)


def test_implicit_r2_zero_coefficients():
    tm = TreatmentMatrix(np.random.default_rng(1).normal(size=(50, 2)))
    model = BinaryOutcome(probit_coef=np.zeros(2), probit_intercept=0.3, p_y1=0.6)
    y = (np.random.default_rng(2).uniform(size=50) < 0.5).astype(float)
    assert implicit_r2(tm, y, probit_model=model) == pytest.approx(0.0, abs=1e-12)


def test_implicit_r2_exact_half():
    # linear predictor values (-1, 0, 1) have sample variance exactly 1
    tm = TreatmentMatrix(np.array([[-1.0], [0.0], [1.0]]))
    model = BinaryOutcome(
        probit_coef=np.array([1.0]), probit_intercept=0.0, p_y1=1.0 / 3.0
    )
    y = np.array([0.0, 0.0, 1.0])
    assert implicit_r2(tm, y, probit_model=model) == pytest.approx(0.5, abs=1e-12)


def test_implicit_r2_three_quarters_simulated():
    rng = np.random.default_rng(17)
    n = 20000
    data = rng.normal(size=(n, 3)) * math.sqrt(1.0)
    coef = np.array([1.0, 1.0, 1.0])
    eta = data @ coef
    y = (eta + rng.normal(size=n) > 0).astype(float)
    tm = TreatmentMatrix(data)
    # Var(eta) = 3, so the implicit share is 3/4
    assert implicit_r2(tm, y) == pytest.approx(0.75, abs=0.03)


def test_implicit_r2_partial_column():
    rng = np.random.default_rng(19)
    n = 30000
    data = rng.normal(size=(n, 2))
    eta = 1.2 * data[:, 0]
    y = (eta + rng.normal(size=n) > 0).astype(float)
    tm = TreatmentMatrix(data)
    full = implicit_r2(tm, y)
    only_relevant = implicit_r2(tm, y, j=0)
    irrelevant = implicit_r2(tm, y, j=1)
    assert only_relevant == pytest.approx(full, abs=0.03)
    assert irrelevant < 0.01


def test_warm_started_implicit_r2_equals_cold_refits(monkeypatch):
    sim = gen_gwas(n=400, k=8, m=3, seed=4)
    y = (sim.y > np.median(sim.y)).astype(float)
    tm = sim.treatments
    model = fit_probit(tm, y)
    r2_full = _implicit_r2_of_fit(tm.data, model)
    trials = []

    def counted(m):
        trials.append(1)
        return log_ndtr(m)

    monkeypatch.setattr(scipy.special, "log_ndtr", counted)
    warm_trials = cold_trials = 0
    for j in range(tm.k):
        trials.clear()
        warm = implicit_r2(tm, y, model, j)
        warm_trials += len(trials)
        trials.clear()
        t_rest = np.delete(tm.data, j, axis=1)
        r2_rest = _implicit_r2_of_fit(t_rest, fit_probit(TreatmentMatrix(t_rest), y))
        cold_trials += len(trials)
        assert warm == pytest.approx((r2_full - r2_rest) / (1.0 - r2_rest), abs=1e-8)
    # the refits start at the full fit, not at zero
    assert warm_trials < cold_trials


def test_implicit_r2_separated_restricted_start_raises_at_once(monkeypatch):
    # the supplied model's coefficient on column 0 alone already separates y
    rng = np.random.default_rng(2)
    t = rng.normal(size=(80, 2))
    y = (t[:, 0] > 0).astype(float)
    model = BinaryOutcome(probit_coef=np.array([3.0, 0.2]), probit_intercept=0.0,
                          p_y1=float(y.mean()))
    trials = []

    def counted(m):
        trials.append(1)
        return log_ndtr(m)

    monkeypatch.setattr(scipy.special, "log_ndtr", counted)
    with pytest.raises(SeparationError):
        implicit_r2(TreatmentMatrix(t), y, model, j=1)
    # the warm start is the witness: no likelihood evaluation, no step
    assert trials == []


def test_benchmark_table_shape_and_names():
    rng = np.random.default_rng(23)
    data = rng.normal(size=(500, 3))
    y = data[:, 0] + rng.normal(size=500)
    tm = TreatmentMatrix(data, column_names=["a", "b", "c"])
    rows = benchmark_table(tm, y)
    assert [name for name, _ in rows] == ["a", "b", "c"]
    assert rows[0][1] > rows[1][1]
    for _, val in rows:
        assert 0.0 <= val <= 1.0


def test_benchmark_table_name_length_mismatch():
    tm = TreatmentMatrix(np.zeros((10, 2)) + np.arange(10)[:, None])
    with pytest.raises(DimensionError):
        benchmark_table(tm, np.arange(10.0), names=["only-one"])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=200),
    k=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_benchmark_table_matches_per_column_refits(n, k, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, k)) * rng.uniform(0.1, 10.0, size=k)
    data[:, 0] += rng.uniform(-5.0, 5.0) * data[:, -1]
    y = data @ rng.normal(size=k) + rng.uniform(0.1, 3.0) * rng.normal(size=n)
    tm = TreatmentMatrix(data)
    table = [v for _, v in benchmark_table(tm, y)]
    per_column = [partial_r2_treatment(tm, y, j) for j in range(k)]
    assert np.allclose(table, per_column, rtol=0.0, atol=1e-10)


def test_benchmark_table_rank_deficient_matches_per_column():
    rng = np.random.default_rng(29)
    base = rng.normal(size=(80, 3))
    data = np.column_stack([base, base[:, 1]])
    y = base @ np.array([1.0, -0.5, 0.3]) + rng.normal(size=80)
    tm = TreatmentMatrix(data)
    table = [v for _, v in benchmark_table(tm, y)]
    per_column = [partial_r2_treatment(tm, y, j) for j in range(4)]
    assert np.allclose(table, per_column, rtol=0.0, atol=1e-10)


def test_benchmark_table_exact_restricted_fit_raises():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(50, 3))
    tm = TreatmentMatrix(data)
    with pytest.raises(CalibrationError):
        benchmark_table(tm, data[:, 0].copy())
    with pytest.raises(CalibrationError):
        benchmark_table(tm, np.full(50, 2.0))


def _partial_r2_reference(t, y, cols):
    """(R2_full - R2_rest) / (1 - R2_rest) from np.linalg.lstsq on unit-norm
    columns, or None where the restricted fit is exact."""

    def r2(x):
        design = np.column_stack([np.ones(len(y)), x])
        norms = np.linalg.norm(design, axis=0)
        design = design / np.where(norms > 0, norms, 1.0)
        resid = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        return 1.0 - resid @ resid / np.sum((y - y.mean()) ** 2)

    r2_rest = r2(np.delete(t, cols, axis=1))
    if 1.0 - r2_rest < 1e-12:
        return None
    return max((r2(t) - r2_rest) / (1.0 - r2_rest), 0.0)


@st.composite
def _calibration_designs(draw):
    """Treatments with a duplicated or constant column, a one-hot block that
    sums to the intercept, a scaled linear combination of two columns, or
    more columns than rows; plus one column set."""
    n = draw(st.integers(8, 80))
    k = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-1, 1, size=k)
    i, j, l = rng.permutation(k)[:3]
    kind = draw(st.sampled_from(["duplicate", "constant", "one-hot", "combination", "wide"]))
    if kind == "duplicate":
        t[:, j] = t[:, i]
    elif kind == "constant":
        t[:, j] = 2.5
    elif kind == "one-hot":
        t = np.column_stack([t, np.eye(3)[rng.integers(0, 3, size=n)]])
    elif kind == "combination":
        t[:, j] = rng.uniform(-3, 3) * t[:, i] + rng.uniform(-3, 3) * t[:, l]
    else:
        t = rng.normal(size=(n, n + draw(st.integers(0, 3))))
    cols = draw(st.lists(st.integers(0, t.shape[1] - 1), min_size=1, unique=True))
    return t, t @ rng.normal(size=t.shape[1]) + rng.normal(size=n), cols


@settings(max_examples=300, deadline=None)
@given(_calibration_designs())
def test_rank_deficient_table_and_partial_r2_match_lstsq(design):
    t, y, cols = design
    tm = TreatmentMatrix(t)
    ref = [_partial_r2_reference(t, y, [j]) for j in range(t.shape[1])]
    if any(r is None for r in ref):
        with pytest.raises(CalibrationError):
            benchmark_table(tm, y)
    else:
        table = [v for _, v in benchmark_table(tm, y)]
        assert np.allclose(table, ref, rtol=0.0, atol=1e-10)
    expected = _partial_r2_reference(t, y, cols)
    if expected is None:
        with pytest.raises(CalibrationError):
            partial_r2_treatment(tm, y, cols)
    else:
        assert partial_r2_treatment(tm, y, cols) == pytest.approx(expected, abs=1e-10)
