"""Independent reference values the benchmark checks the program against.

Everything here is plain numpy and ``math``: no function of the package is
called, so a defect in a package layer cannot hide in its own reference.
"""
from __future__ import annotations

import math

import numpy as np

_erfc = np.frompyfunc(math.erfc, 1, 1)


def phi_cdf(x) -> np.ndarray:
    """Standard normal CDF."""
    return 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0)), dtype=float)


def phi_pdf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class LinearFit:
    """OLS of y on [1, T]: coefficients, residual variance with n-k-1
    degrees of freedom, and the partial R2 of each column given the others,
    t_j^2 / (t_j^2 + df), from the one fit (Cinelli & Hazlett 2020)."""

    def __init__(self, t: np.ndarray, y: np.ndarray):
        n, k = t.shape
        x = np.column_stack([np.ones(n), t])
        q, r = np.linalg.qr(x)
        beta = np.linalg.solve(r, q.T @ y)
        resid = y - x @ beta
        self.df = n - k - 1
        self.intercept = float(beta[0])
        self.tau = beta[1:]
        self.resid = resid
        self.sigma2 = float(resid @ resid) / self.df
        r_inv = np.linalg.inv(r)
        xtx_inv_diag = np.sum(r_inv * r_inv, axis=1)[1:]
        t_stat2 = self.tau**2 / (self.sigma2 * xtx_inv_diag)
        self.partial_r2 = t_stat2 / (t_stat2 + self.df)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


class FactorFit:
    """Probabilistic PCA of the treatments and the confounder posterior
    U | T ~ N(coef (t - mean), sigma_u)."""

    def __init__(self, t: np.ndarray, m: int):
        n = t.shape[0]
        centered = t - t.mean(axis=0)
        lam, vec = np.linalg.eigh(centered.T @ centered / n)
        lam, vec = lam[::-1], vec[:, ::-1]
        noise = float(lam[m:].mean())
        b = vec[:, :m] * np.sqrt(lam[:m] - noise)
        self.coef = np.linalg.solve(b.T @ b + noise * np.eye(m), b.T)
        self.sigma_u = np.eye(m) - self.coef @ b

    def shift_norm2(self) -> np.ndarray:
        """||Sigma^{-1/2} coef e_j||^2 for every unit contrast j; invariant
        under any reparameterisation of the confounder."""
        return np.sum(self.coef * np.linalg.solve(self.sigma_u, self.coef), axis=0)


def unit_bounds(lin: LinearFit, fac: FactorFit, r2_grid) -> dict:
    """Ignorance-region endpoints naive +/- sigma sqrt(r2) ||w|| and robustness
    values naive^2 / (sigma^2 ||w||^2), clipped at 1, for every unit contrast."""
    w2 = fac.shift_norm2()
    rv = np.minimum(lin.tau**2 / (lin.sigma2 * w2), 1.0)
    half = {r2: lin.sigma * math.sqrt(r2) * np.sqrt(w2) for r2 in r2_grid}
    return {"naive": lin.tau, "half_width": half, "rv": rv}


def probit_score(t: np.ndarray, y: np.ndarray, intercept: float, coef) -> float:
    """Largest absolute entry of the probit log-likelihood gradient."""
    x = np.column_stack([np.ones(t.shape[0]), t])
    eta = x @ np.concatenate([[intercept], coef])
    p = np.clip(phi_cdf(eta), 1e-12, 1 - 1e-12)
    return float(np.max(np.abs(x.T @ (phi_pdf(eta) * (y - p) / (p * (1 - p))))))


def gaussian_general_reference(mu, sigma, shifts, rows, m_draws, seed):
    """Closed form and standard errors for the Gaussian-copula
    intervention mean of a linear-Gaussian outcome.

    The mean is mu + sigma * mean(shifts). The importance sampler draws
    y = mu + sigma z and weights it by w(z) = mean_i exp(z s_i - s_i^2 / 2);
    its draw error is sd((mu + sigma z) w(z)) / sqrt(m_draws), estimated
    here by simulation. Sampling ``rows`` of the n rows adds the finite
    population error of a mean.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2000)
    w = np.exp(np.outer(z, shifts) - 0.5 * shifts**2).mean(axis=1)
    se_draws = float(np.std((mu + sigma * z) * w) / math.sqrt(m_draws))
    return mu + sigma * float(shifts.mean()), math.hypot(
        se_draws, _row_se(sigma * shifts, rows)
    )


def fgm_general_reference(mu, sigma, theta, rel_means, sd_u, rows, m_draws):
    """Closed form and standard errors for a linear-Gaussian outcome under
    the Farlie-Gumbel-Morgenstern copula c(p, q) = 1 + theta (1-2p)(1-2q_1).

    With y = mu + sigma z and q_1 = Phi((u_1 - mu_t1) / sd) for u_1 drawn from
    row i's law N(mu_t1 + d_i, sd^2), E[1 - 2 q_1] = 1 - 2 Phi(d_i / (sd sqrt 2))
    and E[y (1 - 2p)] = -sigma / sqrt(pi), so the mean is
    mu - theta sigma / sqrt(pi) * mean_i a_i.
    """
    a = 1.0 - 2.0 * phi_cdf(rel_means / (sd_u * math.sqrt(2.0)))
    a_bar = float(a.mean())
    value = mu - theta * sigma / math.sqrt(math.pi) * a_bar
    # draw error: Var over uniform p of (mu + sigma z)(1 + theta a_bar (1-2p))
    z = np.linspace(-8.0, 8.0, 4001)
    dens = phi_pdf(z)
    p = phi_cdf(z)
    g = (mu + sigma * z) * (1.0 + theta * a_bar * (1.0 - 2.0 * p))
    dz = z[1] - z[0]
    m1 = float(np.sum(g * dens) * dz)
    m2 = float(np.sum(g * g * dens) * dz)
    se_draws = math.sqrt(max(m2 - m1 * m1, 0.0) / m_draws)
    scale = theta * sigma / math.sqrt(math.pi)
    return value, math.hypot(se_draws, _row_se(scale * a, rows))


def _row_se(per_row: np.ndarray, rows: int | None) -> float:
    """Standard error of the mean of ``rows`` values drawn without
    replacement from ``per_row``; zero when every row is used."""
    n = per_row.shape[0]
    if rows is None or rows >= n:
        return 0.0
    return float(np.std(per_row, ddof=1) / math.sqrt(rows) * math.sqrt(1 - rows / n))


def empirical_contrast_reference(mean_diff, resid, s1, s2, n_sim, seed):
    """Monte Carlo value and standard error of the Gaussian-copula contrast
    for an outcome with an additive residual pool: Q(Phi(s + z)) is the
    type-7 residual quantile at each row's shifted draw."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((s1.shape[0], n_sim))
    srt = np.sort(resid)

    def q_of(x):
        p = np.clip(phi_cdf(x), 1e-15, 1 - 1e-15)
        h = p * (srt.shape[0] - 1)
        lo = np.clip(np.floor(h).astype(int), 0, srt.shape[0] - 2)
        return srt[lo] + (h - lo) * (srt[lo + 1] - srt[lo])

    diff = q_of(s1[:, None] + z) - q_of(s2[:, None] + z)
    se = float(np.sqrt(np.sum(np.var(diff, axis=1, ddof=1)) / n_sim) / s1.shape[0])
    return mean_diff + float(diff.mean()), se
