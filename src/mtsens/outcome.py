"""Observed outcome models f(y|t): Gaussian-linear, probit-binary, empirical.

Each model exposes a conditional mean and, through conditional_cdf_quantile,
the conditional CDF / quantile pair used by the copula machinery.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack, qr_multiply, solve_triangular
from scipy.special import ndtr, ndtri

from .errors import (
    DegenerateModelError,
    DimensionError,
    InputFormatError,
    SeparationError,
    SingularFitError,
)
from .factor import TreatmentMatrix, _read_json, _write_json

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _std_normal_pdf(x):
    """Standard normal density in the expression scipy's normal distribution
    evaluates, so the two agree bit for bit; a 0-d input gives a numpy scalar."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


@dataclass(frozen=True)
class GaussianOutcome:
    """Linear-Gaussian observed outcome: Y | T=t ~ N(intercept + tau't, sigma2)."""

    tau_naive: np.ndarray
    intercept: float
    sigma2_y_given_t: float

    def __post_init__(self):
        if self.sigma2_y_given_t <= 0:
            raise DegenerateModelError("sigma2_y_given_t must be positive")
        object.__setattr__(self, "tau_naive", np.asarray(self.tau_naive, dtype=float))

    @property
    def k(self) -> int:
        return self.tau_naive.shape[0]

    def mean(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        return self.intercept + t @ self.tau_naive

    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2_y_given_t))


@dataclass(frozen=True)
class BinaryOutcome:
    """Probit observed outcome for binary Y."""

    probit_coef: np.ndarray
    probit_intercept: float
    p_y1: float

    def __post_init__(self):
        if not (0.0 < self.p_y1 < 1.0):
            raise DegenerateModelError("p_y1 must lie strictly inside (0,1)")
        object.__setattr__(self, "probit_coef", np.asarray(self.probit_coef, dtype=float))

    @property
    def k(self) -> int:
        return self.probit_coef.shape[0]

    def mu_y(self, t) -> np.ndarray | float:
        """P(Y=1 | T=t) under the probit fit."""
        t = np.asarray(t, dtype=float)
        return ndtr(self.probit_intercept + t @ self.probit_coef)


@dataclass(frozen=True)
class EmpiricalOutcome:
    """Pluggable conditional mean with a pooled additive residual sample.

    The residual pool is shared across t (homoskedastic), so conditional
    quantiles are mean_fn(t) plus interpolated residual order statistics.
    """

    mean_fn: object
    residual_quantiles: np.ndarray
    sigma2_y_given_t: float

    def __post_init__(self):
        resid = np.sort(np.asarray(self.residual_quantiles, dtype=float))
        if resid.size == 0:
            raise DegenerateModelError("residual sample is empty")
        if self.sigma2_y_given_t <= 0:
            raise DegenerateModelError("sigma2_y_given_t must be positive")
        object.__setattr__(self, "residual_quantiles", resid)

    def mean(self, t) -> np.ndarray | float:
        return self.mean_fn(t)

    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2_y_given_t))


@dataclass
class PolynomialMeanFn:
    """Least-squares polynomial conditional mean (per-column powers, no
    cross terms). The built-in flexible regressor for EmpiricalOutcome."""

    degree: int
    intercept: float
    coef: np.ndarray  # k x degree, column j holds coefficients of t_j^1..t_j^degree

    def features(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_2d(np.asarray(t, dtype=float))
        cols = [t**d for d in range(1, self.degree + 1)]
        return np.concatenate(cols, axis=1)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        single = t.ndim == 1
        x = self.features(t)
        flat = np.concatenate(
            [self.coef[:, d - 1] for d in range(1, self.degree + 1)]
        )
        out = self.intercept + x @ flat
        return float(out[0]) if single else out


def _certified_lstsq(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Least-squares coefficients of y on the columns of x from an unpivoted
    QR, or None unless a dgecon condition estimate certifies full column
    rank."""
    n, p = x.shape
    if n < p:
        return None
    tol = n * np.finfo(float).eps
    qty, r = qr_multiply(x, y, mode="right")
    # Pivoted R: min|R_ii| / max|R_ii| >= 1/kappa_2(x) >= 1/(p kappa_1(R)), and
    # rcond = 1/(||R||_1 est) with est <= ||R^-1||_1, in practice by a small
    # factor (Higham 1988): with 10x for it and 2x for rounding, rcond > 20 p
    # tol implies full rank. dgecon on R as LU factors (L = I) is ?trcon.
    if lapack.dgecon(r, np.linalg.norm(r, 1))[0] > 20 * p * tol:
        return solve_triangular(r, qty)
    return None


def _lstsq(x: np.ndarray, y: np.ndarray, names: list[str]) -> np.ndarray:
    """Least-squares coefficients of y on the columns of x. Unless an unpivoted
    QR certifies full rank, a pivoted QR decides, and SingularFitError names
    the dependent columns if |R_ii| <= max|R_ii| * max(n, p) * eps."""
    beta = _certified_lstsq(x, y)
    if beta is not None:
        return beta
    qty, r, piv = qr_multiply(x, y, mode="right", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > diag.max() * max(x.shape) * np.finfo(float).eps))
    if rank < x.shape[1]:
        labels = [names[i] for i in sorted(piv[rank:])]
        raise SingularFitError(
            f"design matrix is rank deficient; dependent columns: {labels}",
            columns=labels,
        )
    return solve_triangular(r, qty)[np.argsort(piv)]


def fit_linear(treatments: TreatmentMatrix, y) -> GaussianOutcome:
    """Ordinary least squares of y on the treatments, with intercept."""
    y = np.asarray(y, dtype=float).reshape(-1)
    n, k = treatments.n, treatments.k
    if y.shape[0] != n:
        raise DimensionError(f"y has length {y.shape[0]}, expected {n}")
    if n <= k + 1:
        raise DimensionError(f"need n > k+1 rows for OLS, got n={n}, k={k}")
    x = np.column_stack([np.ones(n), treatments.data])
    beta = _lstsq(x, y, ["intercept"] + treatments.names())
    resid = y - x @ beta
    sigma2 = float(resid @ resid) / (n - k - 1)
    scale = max(float(np.var(y)), 1.0)
    if sigma2 <= 1e-12 * scale:
        warnings.warn(
            "residual variance is numerically zero; outcome is a deterministic "
            "function of the treatments",
            stacklevel=2,
        )
        sigma2 = max(sigma2, 1e-300)
    return GaussianOutcome(tau_naive=beta[1:], intercept=float(beta[0]), sigma2_y_given_t=sigma2)


def fit_probit(treatments: TreatmentMatrix, y, max_iter: int = 100, tol: float = 1e-8) -> BinaryOutcome:
    """Probit maximum likelihood via damped Newton iterations."""
    y = np.asarray(y, dtype=float).reshape(-1)
    n, k = treatments.n, treatments.k
    if y.shape[0] != n:
        raise DimensionError(f"y has length {y.shape[0]}, expected {n}")
    vals = np.unique(y)
    if not np.all(np.isin(vals, (0.0, 1.0))) or vals.size != 2:
        raise InputFormatError("probit outcome must be binary with both classes present")
    x = np.column_stack([np.ones(n), treatments.data])
    beta = np.zeros(k + 1)

    def nll(b):
        eta = x @ b
        p = np.clip(ndtr(eta), 1e-12, 1 - 1e-12)
        return -float(y @ np.log(p) + (1 - y) @ np.log1p(-p))

    current = nll(beta)
    converged = False
    half_norm = None
    for it in range(max_iter):
        eta = x @ beta
        p = np.clip(ndtr(eta), 1e-12, 1 - 1e-12)
        phi = _std_normal_pdf(eta)
        w = phi * phi / (p * (1 - p))
        score = x.T @ (phi * (y - p) / (p * (1 - p)))
        if np.max(np.abs(score)) < tol:
            converged = True
            break
        hess = x.T @ (w[:, None] * x)
        step, *_ = np.linalg.lstsq(hess, score, rcond=None)
        # damp: halve until the likelihood does not get worse
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            if nll(cand) <= current + 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        current = nll(beta)
        if np.max(np.abs(beta)) > 1e3:
            raise SeparationError(
                "probit coefficients diverged; data are perfectly separated"
            )
        if it == max_iter // 2:
            half_norm = float(np.linalg.norm(beta))
    if not converged and half_norm is not None:
        final_norm = float(np.linalg.norm(beta))
        # still marching outward when the iteration budget ran out
        if final_norm > 10.0 and final_norm > 1.5 * half_norm:
            raise SeparationError(
                "probit coefficients kept growing without score convergence; "
                "data are separated or nearly so"
            )
    if not converged:
        warnings.warn(
            "probit fit stopped at the iteration cap before the score "
            "converged",
            stacklevel=2,
        )
    margins = (2 * y - 1) * (x @ beta)
    # a finite score-stationary point that classifies every row correctly
    # with numerically flat tails only exists when the data are separated
    # (the unclipped likelihood has no finite maximizer there)
    if np.all(margins > 0) and float(np.min(margins)) > 4.0:
        raise SeparationError(
            "probit fit classifies every observation perfectly; data are "
            "separated and the maximum likelihood estimate is unbounded"
        )
    return BinaryOutcome(
        probit_coef=beta[1:],
        probit_intercept=float(beta[0]),
        p_y1=float(np.mean(y)),
    )


def fit_empirical(treatments: TreatmentMatrix, y, degree: int = 2, mean_fn=None) -> EmpiricalOutcome:
    """Flexible outcome fit: pluggable mean_fn or the built-in polynomial.

    The polynomial regresses y on [1, t, t**2, ..., t**degree] per column and
    keeps the minimum-norm least-squares coefficients, the solution
    np.linalg.lstsq returns. A power t_j**d equal to t_j (0/1 treatments) is
    an exact copy of the column t_j, so only the distinct columns are solved,
    by an unpivoted QR with a dgecon full-rank certificate, and each copy of
    t_j gets an equal share of its coefficient: with 0/1 treatments the
    degree-d polynomial is the linear fit with each coefficient split over
    its d powers. When the certificate fails (a constant or duplicated
    column, or a power equal to another column, as t**2 = -t on {0, -1}),
    the full design goes to np.linalg.lstsq, an SVD.

    Residual variance uses the population convention (mean squared residual)
    since the effective degrees of freedom of a pluggable regressor are
    unknown.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    n = treatments.n
    if y.shape[0] != n:
        raise DimensionError(f"y has length {y.shape[0]}, expected {n}")
    if mean_fn is None:
        if degree < 1:
            raise InputFormatError(f"polynomial degree must be at least 1, got {degree}")
        t, k = treatments.data, treatments.k
        powers = [t**d for d in range(2, degree + 1)]
        # dup[d - 2, j]: t_j**d is the column t_j itself
        dup = np.array([np.all(pw == t, axis=0) for pw in powers], dtype=bool)
        dup = dup.reshape(degree - 1, k)
        x = np.hstack([np.ones((n, 1)), t] + [pw[:, ~c] for pw, c in zip(powers, dup)])
        beta = _certified_lstsq(x, y)
        if beta is None:
            x = np.hstack([np.ones((n, 1)), t] + powers)
            beta, *_ = np.linalg.lstsq(x, y, rcond=None)
            coef = beta[1:].reshape(degree, k).T
        else:
            # every solution has the same sum over the copies of t_j; the
            # equal split is the one of least norm
            share = beta[1:k + 1] / (1 + dup.sum(axis=0))
            higher = np.zeros(dup.shape)
            higher[~dup] = beta[k + 1:]
            coef = np.vstack([share, np.where(dup, share, higher)]).T
        mean_fn = PolynomialMeanFn(degree=degree, intercept=float(beta[0]), coef=coef)
        resid = y - x @ beta
    else:
        resid = y - np.asarray(mean_fn(treatments.data), dtype=float).reshape(-1)
    sigma2 = float(np.mean(resid**2))
    if sigma2 <= 0:
        raise DegenerateModelError("empirical fit has zero residual variance")
    return EmpiricalOutcome(mean_fn=mean_fn, residual_quantiles=resid, sigma2_y_given_t=sigma2)


def _quantile_type7(sorted_resid: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Linear interpolation between order statistics, type-7 convention."""
    n = sorted_resid.shape[0]
    if n == 1:
        return np.full_like(np.asarray(p, dtype=float), sorted_resid[0])
    h = np.asarray(p, dtype=float) * (n - 1)
    lo = np.clip(np.floor(h).astype(int), 0, n - 2)
    frac = h - lo
    return sorted_resid[lo] + frac * (sorted_resid[lo + 1] - sorted_resid[lo])


def conditional_cdf_quantile(model, t):
    """CDF / quantile pair of Y | T=t for a fitted outcome model.

    Both functions are vectorized; the quantile raises on arguments outside
    (0,1). For binary models the CDF is the two-point law at {0,1}.
    """
    if isinstance(model, GaussianOutcome):
        mu = float(model.mean(t))
        sd = model.sigma()

        def cdf(y):
            return ndtr((np.asarray(y, dtype=float) - mu) / sd)

        def quantile(p):
            p = np.asarray(p, dtype=float)
            if np.any(p <= 0) or np.any(p >= 1):
                raise InputFormatError("quantile argument must lie strictly inside (0,1)")
            return mu + sd * ndtri(p)

        return cdf, quantile

    if isinstance(model, EmpiricalOutcome):
        mu = float(model.mean(t))
        resid = model.residual_quantiles
        n = resid.shape[0]
        grid = np.arange(n) / max(n - 1, 1)

        def cdf(y):
            r = np.asarray(y, dtype=float) - mu
            return np.clip(np.interp(r, resid, grid), 0.0, 1.0)

        def quantile(p):
            p = np.asarray(p, dtype=float)
            if np.any(p <= 0) or np.any(p >= 1):
                raise InputFormatError("quantile argument must lie strictly inside (0,1)")
            return mu + _quantile_type7(resid, p)

        return cdf, quantile

    if isinstance(model, BinaryOutcome):
        p1 = float(np.clip(model.mu_y(t), 1e-12, 1 - 1e-12))

        def cdf(y):
            y = np.asarray(y, dtype=float)
            return np.where(y < 0.0, 0.0, np.where(y < 1.0, 1.0 - p1, 1.0))

        def quantile(p):
            p = np.asarray(p, dtype=float)
            if np.any(p <= 0) or np.any(p >= 1):
                raise InputFormatError("quantile argument must lie strictly inside (0,1)")
            return (p > 1.0 - p1).astype(float)

        return cdf, quantile

    raise TypeError(f"unsupported outcome model type {type(model).__name__}")


def save_outcome(model, path, provenance: dict | None = None) -> None:
    """Write a fitted outcome model as JSON. Empirical models serialize only
    with the built-in polynomial mean; custom callables have no stable form."""
    if isinstance(model, GaussianOutcome):
        payload = {
            "kind": "gaussian",
            "tau_naive": model.tau_naive.tolist(),
            "intercept": model.intercept,
            "sigma2_y_given_t": model.sigma2_y_given_t,
        }
    elif isinstance(model, BinaryOutcome):
        payload = {
            "kind": "probit",
            "probit_coef": model.probit_coef.tolist(),
            "probit_intercept": model.probit_intercept,
            "p_y1": model.p_y1,
        }
    elif isinstance(model, EmpiricalOutcome):
        fn = model.mean_fn
        if not isinstance(fn, PolynomialMeanFn):
            raise TypeError(
                "only polynomial-mean empirical outcomes are serializable"
            )
        payload = {
            "kind": "empirical",
            "mean": {
                "type": "polynomial",
                "degree": fn.degree,
                "intercept": fn.intercept,
                "coef": np.asarray(fn.coef, dtype=float).tolist(),
            },
            "residual_quantiles": model.residual_quantiles.tolist(),
            "sigma2_y_given_t": model.sigma2_y_given_t,
        }
    else:
        raise TypeError(f"unsupported outcome model type {type(model).__name__}")
    _write_json(payload, path, provenance)


def load_outcome(path):
    """Read an outcome JSON written by save_outcome."""
    payload = _read_json(path, "outcome")
    try:
        kind = payload["kind"]
        if kind == "gaussian":
            return GaussianOutcome(
                tau_naive=np.asarray(payload["tau_naive"], dtype=float),
                intercept=float(payload["intercept"]),
                sigma2_y_given_t=float(payload["sigma2_y_given_t"]),
            )
        if kind == "probit":
            return BinaryOutcome(
                probit_coef=np.asarray(payload["probit_coef"], dtype=float),
                probit_intercept=float(payload["probit_intercept"]),
                p_y1=float(payload["p_y1"]),
            )
        if kind == "empirical":
            mean = payload["mean"]
            if mean.get("type") != "polynomial":
                raise InputFormatError(f"unknown mean type {mean.get('type')!r}")
            fn = PolynomialMeanFn(
                degree=int(mean["degree"]),
                intercept=float(mean["intercept"]),
                coef=np.asarray(mean["coef"], dtype=float),
            )
            return EmpiricalOutcome(
                mean_fn=fn,
                residual_quantiles=np.asarray(
                    payload["residual_quantiles"], dtype=float
                ),
                sigma2_y_given_t=float(payload["sigma2_y_given_t"]),
            )
        raise InputFormatError(f"unknown outcome kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed outcome file {path}: {exc}") from exc
