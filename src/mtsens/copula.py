"""Copula factorization machinery: sensitivity vector representation,
Gaussian copula density, the Gaussian-copula Monte Carlo intervention
estimator, the arbitrary-copula importance sampler, and Gaussianization
transforms.

All gamma vectors in this module live on the standardized scale: the
Gaussianized outcome has unit total residual variance, so
gamma' Sigma_{u|t} gamma <= 1 and the leftover sigma2 is 1 minus that.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._linalg import _BLOCK_ENTRIES, PsdRoots, as_points, as_r2, as_vector, check_length, psd_roots
from .errors import CalibrationError, DegenerateModelError, InputFormatError, InvalidCopulaError
from .factor import ConditionalConfounder, Contrast, TreatmentMatrix, _as_map
from .outcome import EmpiricalOutcome, GaussianOutcome, _quantile_type7, conditional_cdf_quantile

CDF_CLAMP = 1e-15
R2_SLACK = 1e-9


@dataclass(frozen=True)
class SensitivitySpec:
    """Sensitivity vector gamma with its (r2, direction) reparameterization.

    gamma is standardized; r2 = gamma' Sigma gamma is the share of the
    Gaussianized residual variance attributed to the confounder; direction
    is the unit vector d with gamma = sqrt(r2) Sigma^{-1/2} d, which lies in
    the row space of Sigma when Sigma is singular.
    """

    gamma: np.ndarray
    r2: float
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_vector(self.gamma, "gamma"))
        object.__setattr__(self, "direction", as_vector(self.direction, "direction"))

    @property
    def m(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def from_gamma(cls, gamma, sigma_u_given_t) -> "SensitivitySpec":
        """The spec of gamma, of Sigma's length m (check_length)."""
        roots = psd_roots(sigma_u_given_t)
        gamma = as_vector(gamma, "gamma", length=roots.matrix.shape[0])
        r2 = float(gamma @ roots.matrix @ gamma)
        if r2 > 1.0 + R2_SLACK:
            raise CalibrationError(
                f"gamma' Sigma gamma = {r2:.6g} exceeds 1: the confounder would "
                "explain more than the whole residual variance"
            )
        r2 = min(r2, 1.0)
        if r2 <= 0.0:
            return cls(gamma=gamma, r2=0.0, direction=np.zeros_like(gamma))
        direction = roots.root @ gamma / np.sqrt(r2)
        return cls(gamma=gamma, r2=r2, direction=direction)

    @classmethod
    def from_r2_direction(cls, r2: float, direction, sigma_u_given_t) -> "SensitivitySpec":
        return cls._from_roots(r2, direction, psd_roots(sigma_u_given_t))

    @classmethod
    def _from_roots(cls, r2: float, direction, roots: PsdRoots) -> "SensitivitySpec":
        """from_r2_direction on the factorization roots of Sigma: a direction
        of Sigma's length m (check_length), and r2 in [0, 1] up to R2_SLACK."""
        direction = as_vector(direction, "direction", length=roots.matrix.shape[0])
        r2 = min(as_r2(r2, "r2", R2_SLACK), 1.0)
        nrm = float(np.linalg.norm(direction))
        if r2 == 0.0:
            return cls(gamma=np.zeros_like(direction), r2=0.0, direction=direction * 0.0)
        if abs(nrm - 1.0) > 1e-10:
            raise CalibrationError(
                f"direction must be a unit vector (norm {nrm:.12g}); "
                "normalize it explicitly before calling"
            )
        if roots.leaves_row_space(direction):
            raise DegenerateModelError(
                "direction leaves the row space of a singular sigma_u_given_t: "
                "Sigma^{1/2} gamma never points there, so no gamma has this "
                "direction"
            )
        gamma = np.sqrt(r2) * (roots.inv_root @ direction)
        return cls(gamma=gamma, r2=r2, direction=direction)

    def transformed(self, a: np.ndarray, sigma_u_given_t) -> "SensitivitySpec":
        """The equivalent spec after reparameterizing the confounder by an
        invertible m x m A (_as_map), for the Sigma of the spec's present
        coordinates (check_length).

        With (coef, Sigma) -> (A coef, A Sigma A'), gamma -> A^-T gamma keeps
        gamma' mu_u and gamma' Sigma gamma, so the copula and r2; direction
        is recomputed on A Sigma A'.
        """
        a = _as_map(a, self.m)
        roots = psd_roots(sigma_u_given_t)
        check_length("sigma_u_given_t", roots.matrix.shape[0], self.m)
        gamma = np.linalg.solve(a.T, self.gamma)
        direction = self.direction
        if self.r2 > 0.0:
            direction = psd_roots(a @ roots.matrix @ a.T).root @ gamma / math.sqrt(self.r2)
        return SensitivitySpec(gamma=gamma, r2=self.r2, direction=direction)


@dataclass(frozen=True)
class CopulaSpec:
    """Copula choice for the general estimator: the model's Gaussian copula
    (parameterized by gamma) or a custom density callback on (0,1)^{1+m}.

    A custom density must be vectorized: density(p, q) with a flat p shaped
    (N,) and q shaped (N, m) returns N densities, one per (p, q) pair.
    """

    kind: str
    gamma: np.ndarray | None = None
    density: Callable | None = None

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.gamma is None:
                raise InvalidCopulaError("gaussian copula requires gamma")
            object.__setattr__(self, "gamma", as_vector(self.gamma, "gamma"))
        elif self.kind == "custom":
            if self.density is None:
                raise InvalidCopulaError("custom copula requires a density callback")
        else:
            raise InvalidCopulaError(f"unknown copula kind {self.kind!r}")

    def validate(self, m: int, n_mc: int = 20000, seed: int = 0, tol: float = 0.05) -> None:
        """Spot-check that the density integrates to 1 over q at a few p."""
        if self.kind == "gaussian":
            return
        rng = np.random.default_rng(seed)
        q = rng.uniform(size=(n_mc, m))
        for p in (0.2, 0.5, 0.8):
            vals = np.asarray(self.density(np.full(n_mc, p), q), dtype=float)
            if np.any(vals < 0):
                raise InvalidCopulaError("custom copula density is negative")
            total = float(np.mean(vals))
            se = float(np.std(vals) / np.sqrt(n_mc))
            if abs(total - 1.0) > max(5 * se, tol):
                raise InvalidCopulaError(
                    f"custom copula density integrates to {total:.4f} at p={p}, not 1"
                )


def _require_gaussian_copula(gamma: np.ndarray, roots: PsdRoots) -> None:
    """InvalidCopulaError unless the correlation of (ytilde, U) | t is positive
    definite: exactly when Sigma is non-singular and the Schur complement
    s^2 = 1 - gamma' Sigma gamma, the variance of ytilde given U, is > 1e-12.
    gamma must already have Sigma's length m."""
    if roots.rank < roots.matrix.shape[0]:
        raise InvalidCopulaError("sigma_u_given_t is singular: the copula has no density")
    s2 = 1.0 - float(gamma @ roots.matrix @ gamma)
    if not s2 > 1e-12:
        raise InvalidCopulaError(f"copula correlation is not positive definite: s^2 = {s2:.3e}")


def gaussian_copula_density(gamma, sigma_u_given_t, p, q):
    """Outcome-confounder dependence density at (p, q) in (0,1)^{1+m}.

    This is the factor c with f(y | t, u) = f(y | t) c(F_{Y|t}(y), F_{U|t}(u)):
    the (m+1)-dimensional Gaussian copula density of (ytilde, U) | t, with
    correlation implied by Cov = [[1, gamma' Sigma], [Sigma gamma, Sigma]]
    (U margins normalized to unit variance), divided by the copula density of
    the U block alone. It is identically 1 when gamma = 0, even when the U
    coordinates are mutually correlated. Vectorized over leading axes of p, q.
    psd_roots judges Sigma, and gamma and the last axis of q must have its
    length m (check_length). InvalidCopulaError when Sigma is singular or
    s^2 = 1 - gamma' Sigma gamma <= 1e-12, where the correlation is not
    positive definite; InputFormatError for a p or q outside (0, 1), where
    the normal quantile is infinite or undefined.
    """
    from scipy.special import ndtri  # imported on use: a slow import

    roots = psd_roots(sigma_u_given_t)
    sigma = roots.matrix
    gamma = as_vector(gamma, "gamma", length=sigma.shape[0])
    _require_gaussian_copula(gamma, roots)
    p = np.asarray(p, dtype=float)
    q = as_points(q, sigma.shape[0], "q")
    for name, v in (("p", p), ("q", q)):
        if not ((v > 0.0) & (v < 1.0)).all():
            raise InputFormatError(f"{name} must lie in the open interval (0, 1)")
    return np.exp(_gaussian_log_density(gamma, sigma, ndtri(p), ndtri(q)))


def _gaussian_log_density(gamma, sigma, z_y, z_u, table=False):
    """log of gaussian_copula_density at z_y = Phi^{-1}(p) and the
    standardized confounder z_u = Phi^{-1}(q), without the checks.

    ytilde | u is Gaussian with mean c_u = gamma'(u - mu_{u|t}) (u - mu
    recovered from z_u through the U margins) and variance
    s^2 = 1 - gamma' Sigma gamma, so the log density is
    a(z_y) + c_u (b(z_y) - c_u / (2 s^2)) with
    a = z_y^2 (1 - 1/s^2) / 2 - log s and b = z_y / s^2. It is at most
    z_y^2 / 2 - log s, so its one exponent cannot overflow, where
    exp(b c_u) exp(-c_u^2 / 2 s^2) does for draws far from mu_{u|t}; at
    q = 0 or 1 it is -inf. z_y broadcasts against the leading axes of z_u;
    with table, a flat z_y (D,) and z_u (P, m) give the (D, P) table of
    every pair, written once as the product of the (D, 3) and (3, P)
    coefficient matrices.
    """
    cond_mean = (z_u * np.sqrt(np.diag(sigma))) @ gamma
    s2 = 1.0 - float(gamma @ sigma @ gamma)
    a = z_y**2 * (0.5 - 0.5 / s2) - 0.5 * math.log(s2)
    b = z_y / s2
    half = cond_mean / (2.0 * s2)
    if table:
        return np.stack([a, b, np.ones_like(a)], axis=1) @ np.stack(
            [np.ones_like(half), cond_mean, -cond_mean * half])
    return a + cond_mean * (b - half)


class MonteCarloMean(NamedTuple):
    value: float
    se: float
    n_rows: int


def _clamped(u):
    """u clipped to [CDF_CLAMP, 1 - CDF_CLAMP] and the number of clipped
    values; an array with nothing to clip comes back as it is."""
    if u.size == 0 or (CDF_CLAMP <= u.min() and u.max() <= 1 - CDF_CLAMP):
        return u, 0
    count = int(np.count_nonzero((u < CDF_CLAMP) | (u > 1 - CDF_CLAMP)))
    return np.clip(u, CDF_CLAMP, 1 - CDF_CLAMP), count


def _warn_clamped(clamped: int, size: int, stacklevel: int) -> None:
    """Warn when more than 0.1% of size copula uniforms hit the CDF clamp;
    stacklevel counts from the caller of this helper."""
    if clamped > 0.001 * size:
        warnings.warn(
            f"{clamped} of {size} copula draws hit the CDF clamping bounds; "
            "tail behavior may be distorted",
            stacklevel=stacklevel + 1,
        )


def _from_gaussian(outcome, t):
    """Map standardized Gaussian values to Y | T=t and count the clamped CDF
    values: mu_t + sigma ytilde exactly for a Gaussian outcome, else the
    quantile at the clamped Phi(ytilde)."""
    from scipy.special import ndtr  # imported on use: a slow import

    if isinstance(outcome, GaussianOutcome):
        mu, sd = float(outcome.mean(t)), outcome.sigma()
        return lambda ytilde: (mu + sd * ytilde, 0)
    if isinstance(outcome, EmpiricalOutcome):
        # unchecked: u is clipped inside (0, 1)
        mu, resid = float(outcome.mean(t)), outcome.residual_quantiles
        diff = np.diff(resid, append=resid[-1])

        def quantile(u):
            # u is a fresh array from ndtr or clip, so it can hold y;
            # a scalar u gives a scalar y
            y = _quantile_type7(resid, diff, u, out=u if u.ndim else None)
            y += mu
            return y
    else:
        _, quantile = conditional_cdf_quantile(outcome, t)

    def to_y(ytilde):
        u, clamped = _clamped(ndtr(ytilde))
        return quantile(u), clamped

    return to_y


def _select_rows(observed: TreatmentMatrix, max_rows, rng) -> np.ndarray:
    if max_rows is not None and max_rows < 1:
        raise InputFormatError("max_rows must be at least 1")
    data = observed.data
    if max_rows is not None and observed.n > max_rows:
        idx = rng.choice(observed.n, size=max_rows, replace=False)
        data = data[np.sort(idx)]
    return data


def _gaussian_means(ts, spec, cc, outcome, observed, v, n_sim, seed, max_rows):
    """One MonteCarloMean of E[v(Y) | do(T=t)] per point t of ts, all from the
    same draws. Blocks of whole rows draw z in row order, the same stream as
    one (row, draw) array, so scratch memory is about _BLOCK_ENTRIES for
    any n. The points, the panel and the outcome share cc's k, and gamma
    its m (check_length)."""
    if n_sim < 1:
        raise InputFormatError("n_sim must be at least 1")
    ts = [as_vector(t, "t", length=cc.k) for t in ts]
    check_length("panel row", observed.k, cc.k)
    check_length("outcome slope vector", outcome.k, cc.k)
    check_length("gamma", spec.m, cc.m)
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = _select_rows(observed, max_rows, rng)
    n = rows.shape[0]
    # the row mean shift is base_i - gamma' coef t; the centering means cancel
    g = cc.coef.T @ spec.gamma
    base = rows @ g
    offsets = [float(t @ g) for t in ts]
    step = max(1, _BLOCK_ENTRIES // n_sim)
    clamped = 0
    if v is None and isinstance(outcome, GaussianOutcome):
        # y = mu_t + sigma (base_i - offset + z) is affine in the shared z, so
        # the sum of z and the sum of its row variances serve every point
        z_sum = z_var = 0.0
        for start in range(0, n, step):
            z = rng.standard_normal(size=(min(step, n - start), n_sim))
            z_sum += z.sum()
            if n_sim > 1:
                z_var += np.var(z, axis=1, ddof=1).sum()
        sd = outcome.sigma()
        mean_shift = float(base.mean()) + z_sum / (n * n_sim)
        means = [float(outcome.mean(t)) + sd * (mean_shift - offset)
                 for t, offset in zip(ts, offsets)]
        var_sums = np.full(len(ts), sd**2 * z_var)
    else:
        to_ys = [_from_gaussian(outcome, t) for t in ts]
        # per point: sum of v(y) and sum of the per-row variances
        sums = np.zeros((len(ts), 2))
        for start in range(0, n, step):
            shift = base[start:start + step, None]
            z = rng.standard_normal(size=(shift.shape[0], n_sim))
            for acc, offset, to_y in zip(sums, offsets, to_ys):
                y, c = to_y(shift - offset + z)
                clamped += c
                vals = y if v is None else np.asarray(v(y), dtype=float)
                acc[0] += vals.sum()
                if n_sim > 1:
                    acc[1] += np.var(vals, axis=1, ddof=1).sum()
        means = sums[:, 0] / (n * n_sim)
        var_sums = sums[:, 1]
    _warn_clamped(clamped, len(ts) * n * n_sim, stacklevel=3)
    se = np.sqrt(var_sums / n_sim) / n if n_sim > 1 else np.full(len(ts), np.nan)
    return [MonteCarloMean(value=float(mean), se=float(e), n_rows=n)
            for mean, e in zip(means, se)]


def intervention_mean_gaussian(
    t,
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    outcome,
    observed: TreatmentMatrix,
    v=None,
    n_sim: int = 200,
    seed: int = 0,
    max_rows: int | None = None,
    with_se: bool = False,
):
    """Monte Carlo E[v(Y) | do(T=t)] under the Gaussian-copula model.

    For each observed row t_i the Gaussianized outcome under do(t) given
    that row's confounder distribution is N(gamma'(mu_{u|t_i} - mu_{u|t}), 1)
    (the unit variance comes from the standardized-scale constraint), so the
    estimator shifts, maps to Y | T=t (see _from_gaussian), and averages.
    Deterministic given seed; the draw layout is indexed by (row, draw),
    independent of any scheduling and of the block size.
    """
    (res,) = _gaussian_means([t], spec, cc, outcome, observed, v, n_sim, seed, max_rows)
    return res if with_se else res.value


def marginal_contrast(
    c: Contrast,
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    outcome,
    observed: TreatmentMatrix,
    v=None,
    tau_fn: str = "difference",
    n_sim: int = 200,
    seed: int = 0,
    max_rows: int | None = None,
    with_se: bool = False,
):
    """Contrast of two intervention means (difference for PATE, ratio for RR).

    Both intervention means come from one set of draws, so identical
    endpoints cancel exactly, and each equals intervention_mean_gaussian at
    the same seed.
    """
    if tau_fn not in ("difference", "ratio"):
        raise InputFormatError(f"unknown tau_fn {tau_fn!r}")
    m1, m2 = _gaussian_means([c.t1, c.t2], spec, cc, outcome, observed, v, n_sim, seed,
                             max_rows)
    if tau_fn == "difference":
        value = m1.value - m2.value
        se = float(np.hypot(m1.se, m2.se))
    else:
        if abs(m2.value) < 1e-12:
            raise ZeroDivisionError("ratio contrast denominator is numerically zero")
        value = m1.value / m2.value
        rel = np.hypot(m1.se / m1.value if m1.value != 0 else 0.0, m2.se / m2.value)
        se = float(abs(value) * rel)
    if with_se:
        return MonteCarloMean(value=value, se=se, n_rows=m1.n_rows)
    return value


def intervention_mean_general(
    t,
    copula: CopulaSpec,
    cc: ConditionalConfounder,
    outcome,
    observed: TreatmentMatrix,
    v=None,
    m_draws: int = 200,
    n_draws: int = 50,
    seed: int = 0,
    max_rows: int | None = None,
):
    """Importance-sampling E[v(Y) | do(T=t)] for an arbitrary copula.

    Draws y from f(y|t) by inverse-CDF sampling (so F(y) is the uniform
    driving it), draws confounders from each observed row's conditional law,
    and weights by the copula density averaged over those draws. The
    weights accumulate over blocks of whole rows, each holding about
    _BLOCK_ENTRIES (draw, row, confounder draw) triples, so scratch memory
    is independent of the number of rows. A custom density is called once
    per block, on every pair of the m_draws outcome uniforms with the
    block's confounder uniforms.

    The Gaussian copula takes the standardized confounder draws
    (u - mu_{u|t}) / sd_t as they are, so rows far from mu_{u|t} keep their
    true density. A custom density needs uniforms: there each draw goes
    through Phi, is clipped to [CDF_CLAMP, 1 - CDF_CLAMP], and a warning
    counts the clipped values. t, the panel and the outcome share cc's k,
    and a Gaussian copula's gamma its m (check_length).
    """
    from scipy.special import ndtr, ndtri  # imported on use: a slow import

    if m_draws < 1 or n_draws < 1:
        raise InputFormatError("m_draws and n_draws must be at least 1")
    t = as_vector(t, "t", length=cc.k)
    check_length("panel row", observed.k, cc.k)
    check_length("outcome slope vector", outcome.k, cc.k)
    if copula.kind == "gaussian":
        check_length("gamma", copula.gamma.shape[0], cc.m)
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = _select_rows(observed, max_rows, rng)
    n = rows.shape[0]
    m = cc.m

    p = rng.uniform(CDF_CLAMP, 1 - CDF_CLAMP, size=m_draws)
    _, quantile = conditional_cdf_quantile(outcome, t)
    y = quantile(p)

    if not cc.full_rank():
        raise InvalidCopulaError(
            "sigma_u_given_t is singular; the general estimator needs a "
            "proper confounder density"
        )
    sigma = cc.sigma_u_given_t
    root = cc.roots.root
    # margins of U | t at the intervention point
    mu_t = cc.mu_u_given_t(t)
    sd_t = np.sqrt(np.diag(sigma))
    if copula.kind == "gaussian":
        _require_gaussian_copula(copula.gamma, cc.roots)
        z_p = ndtri(p)

    # blocks of whole rows draw zu in row order: the same stream as one draw
    step = max(1, _BLOCK_ENTRIES // (n_draws * m_draws))
    w_sum = np.zeros(m_draws)
    clamped = 0
    for start in range(0, n, step):
        block = rows[start:start + step]
        zu = rng.standard_normal(size=(block.shape[0], n_draws, m))
        u = cc.mu_u_given_t(block)[:, None, :] + zu @ root.T
        z_u = (u.reshape(-1, m) - mu_t) / sd_t
        if copula.kind == "gaussian":
            # one exponent of the whole (draw, pair) table, in place
            cvals = _gaussian_log_density(copula.gamma, sigma, z_p, z_u, table=True)
            np.exp(cvals, out=cvals)
        else:
            q, c = _clamped(ndtr(z_u))
            clamped += c
            cvals = np.asarray(
                copula.density(np.repeat(p, q.shape[0]), np.tile(q, (m_draws, 1))),
                dtype=float,
            ).reshape(m_draws, q.shape[0])
        w_sum += cvals.sum(axis=1)
    _warn_clamped(clamped, n * n_draws * m, stacklevel=2)
    w = w_sum / (n * n_draws)
    w_se = float(np.std(w, ddof=1) / np.sqrt(m_draws)) if m_draws > 1 else float("nan")
    if m_draws > 1 and abs(float(np.mean(w)) - 1.0) > 5 * w_se:
        warnings.warn(
            f"importance weights average {np.mean(w):.4f}, not 1: the copula "
            "is inconsistent with the fitted margins",
            stacklevel=2,
        )
    vals = y if v is None else np.asarray(v(y), dtype=float)
    return float(np.mean(vals * w))


def gaussianize(outcome, t, y):
    """Map outcome values to the standardized Gaussian scale at t."""
    from scipy.special import ndtri  # imported on use: a slow import

    cdf, _ = conditional_cdf_quantile(outcome, t)
    u, clamped = _clamped(np.asarray(cdf(y), dtype=float))
    if clamped:
        warnings.warn(
            f"{clamped} outcome values hit the CDF clamping bounds during "
            "gaussianization",
            stacklevel=2,
        )
    return ndtri(u)


def degaussianize(outcome, t, ytilde):
    """Inverse of gaussianize: map standardized Gaussian values back."""
    ytilde = np.asarray(ytilde, dtype=float)
    y, clamped = _from_gaussian(outcome, t)(ytilde)
    _warn_clamped(clamped, ytilde.size, stacklevel=2)
    return y
