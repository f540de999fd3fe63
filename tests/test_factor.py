import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsens import (
    ConditionalConfounder,
    Contrast,
    DegenerateModelError,
    DimensionError,
    FactorModel,
    InputFormatError,
    TreatmentMatrix,
    benchmark_table,
    conditional_confounder,
    fit_empirical,
    fit_linear,
    fit_ppca,
    gen_gwas,
    load_confounder,
    load_factor_model,
    mu_delta,
    ppca_from_covariance,
    save_confounder,
    save_factor_model,
    select_dim,
)
from mtsens._linalg import _moments, psd_roots
from mtsens.factor import _fold_scores, _holdout_scores

B_K4 = np.array([[2.0], [0.5], [-0.4], [0.2]])


def _simulate_factor_data(b, sigma2, n, seed=0):
    rng = np.random.default_rng(seed)
    k, m = b.shape
    u = rng.normal(size=(n, m))
    return u @ b.T + math.sqrt(sigma2) * rng.normal(size=(n, k))


def test_treatment_matrix_names_and_shape():
    tm = TreatmentMatrix(np.zeros((5, 3)))
    assert tm.n == 5 and tm.k == 3
    assert tm.names() == ["t1", "t2", "t3"]


def test_contrast_caches_delta():
    c = Contrast(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
    assert np.array_equal(c.delta, np.array([0.5, 3.0]))
    e2 = Contrast.unit(4, 1)
    assert np.array_equal(e2.t1, np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(e2.t2, np.zeros(4))
    # built without __post_init__: the same arrays the constructor would give
    ref = Contrast(e2.t1, e2.t2)
    for got, want in ((e2.t1, ref.t1), (e2.t2, ref.t2), (e2.delta, ref.delta)):
        assert got.dtype == want.dtype == np.float64 and np.array_equal(got, want)
    assert not np.shares_memory(e2.delta, e2.t1)
    with pytest.raises(IndexError):
        Contrast.unit(4, 4)


def test_ppca_from_covariance_two_by_two():
    # eigenvalues of [[5,2],[2,2]] are 6 and 1, so sigma2 = 1 and the
    # loading is sqrt(6-1) times the unit eigenvector (2,1)/sqrt(5)
    fm = ppca_from_covariance(np.array([[5.0, 2.0], [2.0, 2.0]]), m=1)
    assert fm.sigma2_t_given_u == pytest.approx(1.0, abs=1e-12)
    assert fm.singular_values[0] == pytest.approx(math.sqrt(5), abs=1e-12)
    assert fm.b_hat[:, 0] == pytest.approx([2.0, 1.0], abs=1e-12)


def test_fit_ppca_recovers_generating_covariance():
    data = _simulate_factor_data(B_K4, 1.0, n=50000, seed=11)
    fm = fit_ppca(TreatmentMatrix(data), m=1)
    target = B_K4 @ B_K4.T + np.eye(4)
    fitted = fm.b_hat @ fm.b_hat.T + fm.sigma2_t_given_u * np.eye(4)
    rel = np.linalg.norm(fitted - target) / np.linalg.norm(target)
    assert rel < 0.05


def test_fit_ppca_pure_noise_has_tiny_loading():
    rng = np.random.default_rng(3)
    small = fit_ppca(TreatmentMatrix(rng.normal(size=(2000, 5))), m=1)
    big = fit_ppca(TreatmentMatrix(rng.normal(size=(50000, 5))), m=1)
    assert big.sigma2_t_given_u == pytest.approx(1.0, abs=0.05)
    # no real factor: the spurious loading shrinks with n
    assert np.linalg.norm(big.b_hat) < np.linalg.norm(small.b_hat)
    assert np.linalg.norm(big.b_hat) < 0.3


def test_fit_ppca_rejects_m_not_below_k():
    data = _simulate_factor_data(B_K4, 1.0, n=100)
    with pytest.raises(DimensionError):
        fit_ppca(TreatmentMatrix(data), m=4)


def test_ppca_reconstruction_spectrum():
    # reconstructed covariance keeps the top-m eigenpairs and replaces the
    # trailing eigenvalues by their mean
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 6))
    cov = a @ a.T + 6 * np.eye(6)
    lam = np.linalg.eigvalsh(cov)[::-1]
    m = 2
    fm = ppca_from_covariance(cov, m)
    recon = fm.b_hat @ fm.b_hat.T + fm.sigma2_t_given_u * np.eye(6)
    expected = np.concatenate([lam[:m], np.full(6 - m, lam[m:].mean())])
    got = np.linalg.eigvalsh(recon)[::-1]
    assert got == pytest.approx(expected, abs=1e-10)


def _ppca_full_eigh(cov, m):
    """Reference: Tipping-Bishop loadings from the whole spectrum, or None
    where the leading eigenvalues do not exceed the noise level."""
    lam, vec = np.linalg.eigh(cov)
    lam, vec = lam[::-1], vec[:, ::-1]
    sigma2 = lam[m:].mean()
    if np.any(lam[:m] <= sigma2):
        return None
    d = np.sqrt(lam[:m] - sigma2)
    return vec[:, :m] * d, sigma2, d, lam


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [2, 3, 9, 10, 11, 60])
@pytest.mark.parametrize("top", [False, True])
def test_partial_spectrum_ppca_matches_full_eigh(k, top, seed):
    m = k - 1 if top else 1
    rng = np.random.default_rng(seed)
    # noise scales spread so that no two eigenvalues nearly tie
    b = rng.normal(size=(k, m)) * 2.0
    data = _simulate_factor_data(b, 1.0, n=4 * k + 40, seed=seed) * np.linspace(0.6, 1.4, k)
    fm = fit_ppca(TreatmentMatrix(data), m)
    centered = data - data.mean(axis=0)
    b_ref, sigma2, d, lam = _ppca_full_eigh(centered.T @ centered / data.shape[0], m)
    signs = np.sign(np.sum(fm.b_hat * b_ref, axis=0))
    assert np.linalg.norm(fm.b_hat * signs - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
    assert fm.sigma2_t_given_u == pytest.approx(sigma2, rel=1e-10)
    # d_i^2 = lambda_i - sigma2 carries the eigenvalues' absolute error,
    # about k eps lambda_max, which dominates when lambda_m is near sigma2
    eps = np.finfo(float).eps
    assert fm.singular_values**2 == pytest.approx(d**2, rel=1e-10, abs=k * eps * lam[0])
    # the leading min(k, max(m, 10)) eigenvalues, all of them when k <= 10
    assert fm.covariance_eigvals.shape == (min(k, max(m, 10)),)
    assert fm.covariance_eigvals == pytest.approx(lam[: min(k, max(m, 10))], rel=1e-10)


@pytest.mark.parametrize(
    "cov, m, degenerate",
    [
        (np.array([[5.0, 2.0], [2.0, 2.0]]), 1, False),
        (2.0 * np.eye(2), 1, True),
        (3.0 * np.eye(3), 2, True),
        (np.diag([5.0, 1.0, 1.0, 1.0]), 2, True),
        (np.diag([4.0, 3.0] + [0.5] * 9), 1, False),
        (0.5 * np.eye(11), 10, True),
        (np.eye(12), 1, True),
        (np.diag([5.0] + [1.0] * 11), 2, True),
    ],
)
def test_partial_spectrum_ppca_keeps_degenerate_verdict(cov, m, degenerate):
    ref = _ppca_full_eigh(cov, m)
    assert (ref is None) == degenerate
    if degenerate:
        with pytest.raises(DegenerateModelError):
            ppca_from_covariance(cov, m)
        return
    fm = ppca_from_covariance(cov, m)
    assert fm.sigma2_t_given_u == pytest.approx(ref[1], rel=1e-10)
    assert np.abs(fm.b_hat) == pytest.approx(np.abs(ref[0]), rel=1e-10)


def test_treatment_data_is_a_read_only_view():
    arr = np.random.default_rng(0).normal(size=(20, 3))
    tm = TreatmentMatrix(arr)
    with pytest.raises(ValueError, match="read-only"):
        tm.data[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        tm.moments[1][0, 0] = 1.0
    arr[0, 0] = 5.0
    assert tm.data[0, 0] == 5.0


def test_one_panel_forms_its_centered_gram_once(monkeypatch):
    # select_dim, the factor model, the linear and polynomial fits on 0/1
    # treatments and the calibration table all read the panel's moments
    import mtsens._linalg
    import mtsens.factor

    calls = []

    def counting(t):
        calls.append(t.shape)
        return _moments(t)

    monkeypatch.setattr(mtsens._linalg, "_moments", counting)
    monkeypatch.setattr(mtsens.factor, "_moments", counting)
    sim = gen_gwas(n=400, k=20, m=2, seed=4)
    tm, y = sim.treatments, sim.y
    assert set(np.unique(tm.data)) == {0.0, 1.0}
    m = select_dim(tm)
    fit_ppca(tm, m)
    fit_linear(tm, y)
    fit_empirical(tm, y)
    benchmark_table(tm, y)
    assert calls == [(400, 20)]


def test_select_dim_eigen_gap_one_factor():
    data = _simulate_factor_data(B_K4, 1.0, n=5000, seed=2)
    assert select_dim(TreatmentMatrix(data), method="eigen_gap") == 1


def test_select_dim_holdout_two_factors():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(6, 2)) * 2.0
    data = _simulate_factor_data(b, 1.0, n=3000, seed=6)
    assert select_dim(TreatmentMatrix(data), method="holdout") == 2


def _fold_scores_reference(lam, vec, xc):
    """Held-out per-entry NLL for m = 1..k-1 from the dense k x k PPCA
    covariance, its slogdet and its inverse."""
    h, k = xc.shape
    out = np.empty(k - 1)
    for i, m in enumerate(range(1, k)):
        sigma2 = float(np.mean(lam[m:]))
        if sigma2 <= 0:
            out[i] = np.inf
            continue
        b = vec[:, :m] * np.sqrt(np.maximum(lam[:m] - sigma2, 0.0))
        c = b @ b.T + sigma2 * np.eye(k)
        _, logdet = np.linalg.slogdet(c)
        quad = np.einsum("ij,jk,ik->i", xc, np.linalg.inv(c), xc).sum()
        out[i] = 0.5 * (k * math.log(2 * math.pi) * h + logdet * h + quad) / (h * k)
    return out


def _assert_scores_match(ours, ref):
    assert np.array_equal(np.isinf(ours), np.isinf(ref))
    finite = np.isfinite(ref)
    assert ours[finite] == pytest.approx(ref[finite], rel=1e-9)
    # the pick minimizes the reference; only scores tied within rounding (a
    # flat tail gives every m past it the same model) may trade places
    low = ref.min()
    assert ref[np.argmin(ours)] <= low + 1e-9 * abs(low)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=3, max_size=8),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([None, 0.0, 0.05, 1.0]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fold_scores_match_dense_reference(values, n_flat, tail, h, seed):
    lam = np.sort(values)[::-1]
    k = lam.shape[0]
    n_flat = min(n_flat, k - 1)
    if tail is not None and n_flat:
        # an exactly flat tail, at zero or at a positive level
        lam[k - n_flat:] = min(tail, lam[k - n_flat - 1])
    rng = np.random.default_rng(seed)
    vec, _ = np.linalg.qr(rng.normal(size=(k, k)))
    xc = rng.normal(size=(h, k)) * np.sqrt(lam.max())
    _assert_scores_match(_fold_scores(lam, vec, xc), _fold_scores_reference(lam, vec, xc))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=40, max_value=200),
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_holdout_scores_match_dense_reference(n, k, m, isotropic, seed):
    rng = np.random.default_rng(seed)
    noise = np.ones(k) if isotropic else rng.uniform(0.3, 2.0, size=k)
    data = rng.normal(size=(n, m)) @ rng.normal(size=(k, m)).T * 2.0
    data += noise * rng.normal(size=(n, k))
    ref = np.zeros(k - 1)
    for held in np.array_split(np.random.default_rng(0).permutation(n), 5):
        train = np.delete(data, held, axis=0)
        lam, vec = np.linalg.eigh(np.cov(train.T, bias=True))
        ref += _fold_scores_reference(lam[::-1], vec[:, ::-1], data[held] - train.mean(axis=0))
    _assert_scores_match(_holdout_scores(data), ref)
    assert select_dim(TreatmentMatrix(data), method="holdout") == np.argmin(_holdout_scores(data)) + 1


def test_select_dim_flat_spectrum_rejected():
    # centered columns of this design are exactly orthonormal, so every
    # covariance eigenvalue is identical
    h = np.array(
        [
            [1, 1, 1],
            [1, -1, -1],
            [-1, 1, -1],
            [-1, -1, 1],
        ],
        dtype=float,
    )
    data = np.vstack([h, h])
    with pytest.raises(DegenerateModelError):
        select_dim(TreatmentMatrix(data), method="eigen_gap")


def test_conditional_confounder_scalar_case():
    # single live treatment with loading 2 and unit noise; the second
    # column has zero loading and leaves the scalar arithmetic untouched
    fm = FactorModel(
        b_hat=np.array([[2.0], [0.0]]),
        sigma2_t_given_u=1.0,
        m=1,
        singular_values=np.array([2.0]),
    )
    cc = conditional_confounder(fm)
    assert cc.coef[0, 0] == pytest.approx(0.4, abs=1e-12)
    assert cc.coef[0, 1] == 0.0
    assert cc.sigma_u_given_t[0, 0] == pytest.approx(0.2, abs=1e-12)


def test_conditional_confounder_zero_loading():
    fm = FactorModel(
        b_hat=np.zeros((3, 2)),
        sigma2_t_given_u=1.0,
        m=2,
        singular_values=np.zeros(2),
    )
    cc = conditional_confounder(fm)
    assert np.allclose(cc.coef, 0.0)
    assert np.allclose(cc.sigma_u_given_t, np.eye(2))


def test_conditional_confounder_rank_one_k4():
    fm = FactorModel(
        b_hat=B_K4,
        sigma2_t_given_u=1.0,
        m=1,
        singular_values=np.array([math.sqrt(4.45)]),
    )
    cc = conditional_confounder(fm)
    # Sherman-Morrison: 1 - B'(BB'+I)^{-1}B = 1/(1+|B|^2) = 1/5.45
    assert cc.sigma_u_given_t[0, 0] == pytest.approx(1 / 5.45, abs=1e-12)
    assert cc.coef[0] == pytest.approx(B_K4[:, 0] / 5.45, abs=1e-12)


def test_woodbury_matches_direct_inverse():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(12, 3))
    s2 = 0.7
    fm = FactorModel(
        b_hat=b, sigma2_t_given_u=s2, m=3, singular_values=np.ones(3)
    )
    cc = conditional_confounder(fm)
    direct_coef = b.T @ np.linalg.inv(b @ b.T + s2 * np.eye(12))
    assert np.allclose(cc.coef, direct_coef, rtol=1e-10, atol=1e-12)
    assert np.allclose(
        cc.sigma_u_given_t, np.eye(3) - direct_coef @ b, rtol=1e-10, atol=1e-12
    )


def test_conditional_variance_eigenvalues_in_unit_interval():
    rng = np.random.default_rng(10)
    for _ in range(10):
        b = rng.normal(size=(7, 2)) * rng.uniform(0.1, 5)
        fm = FactorModel(
            b_hat=b,
            sigma2_t_given_u=rng.uniform(0.1, 3),
            m=2,
            singular_values=np.ones(2),
        )
        eigs = np.linalg.eigvalsh(conditional_confounder(fm).sigma_u_given_t)
        assert np.all(eigs >= -1e-12)
        assert np.all(eigs <= 1 + 1e-12)


def test_mu_delta_zero_contrast():
    fm = FactorModel(
        b_hat=B_K4, sigma2_t_given_u=1.0, m=1, singular_values=np.ones(1)
    )
    cc = conditional_confounder(fm)
    c = Contrast(np.ones(4), np.ones(4))
    assert np.allclose(mu_delta(cc, c), 0.0)


def test_mu_delta_null_space_contrast():
    fm = FactorModel(
        b_hat=B_K4, sigma2_t_given_u=1.0, m=1, singular_values=np.ones(1)
    )
    cc = conditional_confounder(fm)
    # (0.5, -2, 0, 0) is orthogonal to the loading column
    delta = np.array([0.5, -2.0, 0.0, 0.0])
    assert abs(B_K4[:, 0] @ delta) < 1e-14
    c = Contrast(delta, np.zeros(4))
    assert np.allclose(mu_delta(cc, c), 0.0, atol=1e-14)


def test_mu_delta_scalar_value():
    fm = FactorModel(
        b_hat=np.array([[2.0], [0.0]]),
        sigma2_t_given_u=1.0,
        m=1,
        singular_values=np.array([2.0]),
    )
    cc = conditional_confounder(fm)
    c = Contrast(np.array([1.0, 0.0]), np.zeros(2))
    assert mu_delta(cc, c)[0] == pytest.approx(0.4, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_whitened_shift_is_reparameterization_invariant(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(5, 2)) * 1.5
    fm = FactorModel(
        b_hat=b, sigma2_t_given_u=1.0, m=2, singular_values=np.ones(2)
    )
    cc = conditional_confounder(fm)
    delta = rng.normal(size=5)
    c = Contrast(delta, np.zeros(5))
    raw = rng.normal(size=(2, 2))
    a = raw @ raw.T + 0.3 * np.eye(2)
    cc2 = cc.reparameterized(a)
    base = np.linalg.norm(cc.roots.inv_root @ mu_delta(cc, c))
    moved = np.linalg.norm(cc2.roots.inv_root @ mu_delta(cc2, c))
    assert moved == pytest.approx(base, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    rank=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_psd_roots_of_random_rank(m, rank, seed):
    rank = min(rank, m)
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.normal(size=(m, m)))
    lam = np.zeros(m)
    lam[:rank] = rng.uniform(0.05, 3.0, size=rank)
    sigma = (v * lam) @ v.T
    roots = psd_roots(sigma)
    assert roots.rank == rank
    assert roots.root @ roots.root == pytest.approx(sigma, abs=1e-10)
    row_proj = v[:, :rank] @ v[:, :rank].T
    assert roots.inv_root @ sigma @ roots.inv_root == pytest.approx(row_proj, abs=1e-9)
    assert roots.null.shape == (m, m - rank)
    assert roots.null.T @ roots.null == pytest.approx(np.eye(m - rank), abs=1e-10)
    # spans the complement: null-space projector plus row-space projector is I
    assert roots.null @ roots.null.T + row_proj == pytest.approx(np.eye(m), abs=1e-9)


def test_replace_refactorizes_sigma():
    cc = ConditionalConfounder(coef=np.eye(2), sigma_u_given_t=np.diag([0.5, 0.2]))
    moved = dataclasses.replace(cc, coef=2.0 * np.eye(2))
    assert moved.roots is not cc.roots
    assert moved.roots.inv_root == pytest.approx(cc.roots.inv_root, abs=1e-15)
    singular = dataclasses.replace(cc, sigma_u_given_t=np.diag([0.5, 0.0]))
    assert singular.rank == 1 and not singular.full_rank()
    assert singular.roots.null == pytest.approx(np.array([[0.0], [1.0]]), abs=1e-15)


def test_confounder_round_trip(tmp_path):
    fm = FactorModel(
        b_hat=B_K4, sigma2_t_given_u=1.0, m=1, singular_values=np.ones(1)
    )
    cc = conditional_confounder(fm)
    path = tmp_path / "cc.json"
    save_confounder(cc, path)
    loaded = load_confounder(path)
    assert np.array_equal(loaded.coef, cc.coef)
    assert np.array_equal(loaded.sigma_u_given_t, cc.sigma_u_given_t)
    assert np.array_equal(loaded.treatment_means, cc.treatment_means)


def test_load_confounder_symmetrizes_tiny_asymmetry(tmp_path):
    path = tmp_path / "cc.json"
    sigma = [[0.5, 0.1], [0.1 + 1e-12, 0.5]]
    path.write_text(
        '{"m": 2, "k": 2, "coef": [[0.1, 0.0], [0.0, 0.1]], '
        f'"sigma_u_given_t": {sigma}, "treatment_means": [0.0, 0.0]}}'.replace(
            "'", '"'
        )
    )
    loaded = load_confounder(path)
    assert np.array_equal(loaded.sigma_u_given_t, loaded.sigma_u_given_t.T)


def test_load_confounder_rejects_negative_eigenvalue(tmp_path):
    path = tmp_path / "cc.json"
    path.write_text(
        '{"m": 1, "k": 1, "coef": [[0.1]], "sigma_u_given_t": [[-0.1]], '
        '"treatment_means": [0.0]}'
    )
    with pytest.raises(InputFormatError):
        load_confounder(path)


def test_factor_model_round_trip(tmp_path):
    data = _simulate_factor_data(B_K4, 1.0, n=500, seed=1)
    fm = fit_ppca(TreatmentMatrix(data), m=1)
    path = tmp_path / "fm.json"
    save_factor_model(fm, path)
    loaded = load_factor_model(path)
    assert np.array_equal(loaded.b_hat, fm.b_hat)
    assert loaded.sigma2_t_given_u == fm.sigma2_t_given_u
    assert np.array_equal(loaded.treatment_means, fm.treatment_means)


def test_conditional_confounder_direct_construction_validates():
    with pytest.raises(DimensionError):
        ConditionalConfounder(
            coef=np.zeros((2, 3)), sigma_u_given_t=np.eye(3)
        )


def test_bad_inputs_raise_typed_errors():
    with pytest.raises(InputFormatError, match="non-finite"):
        TreatmentMatrix(np.array([[0.0, 1.0], [np.nan, 2.0]]))
    with pytest.raises(DegenerateModelError, match="not symmetric"):
        ConditionalConfounder(coef=np.eye(2), sigma_u_given_t=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DegenerateModelError, match="negative eigenvalue"):
        ConditionalConfounder(coef=np.eye(2), sigma_u_given_t=np.diag([1.0, -0.5]))
    data = _simulate_factor_data(B_K4, 1.0, n=200, seed=2)
    with pytest.raises(InputFormatError, match="unknown method"):
        select_dim(TreatmentMatrix(data), method="bogus")
