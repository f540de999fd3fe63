import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsens import (
    BinaryOutcome,
    CalibrationError,
    DimensionError,
    SensitivitySpec,
    TreatmentMatrix,
    benchmark_table,
    fit_probit,
    gamma_from_r2_direction,
    gamma_from_signed_r2,
    implicit_r2,
    partial_r2_treatment,
)

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
    assert table == [partial_r2_treatment(tm, y, j) for j in range(4)]


def test_benchmark_table_exact_restricted_fit_raises():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(50, 3))
    tm = TreatmentMatrix(data)
    with pytest.raises(CalibrationError):
        benchmark_table(tm, data[:, 0].copy())
    with pytest.raises(CalibrationError):
        benchmark_table(tm, np.full(50, 2.0))
