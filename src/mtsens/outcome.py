"""Observed outcome models f(y|t): Gaussian-linear, probit-binary, empirical.

Each model exposes a conditional mean and, through conditional_cdf_quantile,
the conditional CDF / quantile pair used by the copula machinery. Each owns
the k axis of the points it is evaluated at (as_points), except a custom
mean_fn, whose k is unknown.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import (as_points, as_scalar, as_vector, certified_cholesky_solve,
                      check_length, full_rank_lstsq, gram_lstsq)
from .errors import DegenerateModelError, DimensionError, InputFormatError, SeparationError
from .factor import TreatmentMatrix, _read_json, _write_json

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)


@dataclass(frozen=True)
class GaussianOutcome:
    """Linear-Gaussian observed outcome: Y | T=t ~ N(intercept + tau't, sigma2)."""

    tau_naive: np.ndarray
    intercept: float
    sigma2_y_given_t: float

    def __post_init__(self):
        object.__setattr__(self, "tau_naive", as_vector(self.tau_naive, "tau_naive"))
        object.__setattr__(self, "intercept", as_scalar(self.intercept, "intercept"))
        object.__setattr__(self, "sigma2_y_given_t",
                           as_scalar(self.sigma2_y_given_t, "sigma2_y_given_t", positive=True))

    @property
    def k(self) -> int:
        return self.tau_naive.shape[0]

    def mean(self, t) -> np.ndarray | float:
        return self.intercept + as_points(t, self.k) @ self.tau_naive

    def sigma(self) -> float:
        return float(np.sqrt(self.sigma2_y_given_t))


@dataclass(frozen=True)
class BinaryOutcome:
    """Probit observed outcome for binary Y."""

    probit_coef: np.ndarray
    probit_intercept: float
    p_y1: float

    def __post_init__(self):
        object.__setattr__(self, "p_y1", as_scalar(self.p_y1, "p_y1"))
        if not (0.0 < self.p_y1 < 1.0):
            raise DegenerateModelError("p_y1 must lie strictly inside (0,1)")
        object.__setattr__(self, "probit_coef", as_vector(self.probit_coef, "probit_coef"))
        object.__setattr__(self, "probit_intercept",
                           as_scalar(self.probit_intercept, "probit_intercept"))

    @property
    def k(self) -> int:
        return self.probit_coef.shape[0]

    def mu_y(self, t) -> np.ndarray | float:
        """P(Y=1 | T=t) under the probit fit."""
        from scipy.special import ndtr  # imported on use: a slow import

        return ndtr(self.probit_intercept + as_points(t, self.k) @ self.probit_coef)


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
        resid = np.sort(as_vector(self.residual_quantiles, "residual_quantiles"))
        if resid.size == 0:
            raise DegenerateModelError("residual sample is empty")
        object.__setattr__(self, "residual_quantiles", resid)
        object.__setattr__(self, "sigma2_y_given_t",
                           as_scalar(self.sigma2_y_given_t, "sigma2_y_given_t", positive=True))

    @property
    def k(self) -> int | None:
        """The built-in polynomial mean's treatment count; None for a custom
        mean_fn, which no length rule checks."""
        fn = self.mean_fn
        return fn.coef.shape[0] if isinstance(fn, PolynomialMeanFn) else None

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

    def __post_init__(self):
        self.intercept = as_scalar(self.intercept, "intercept")
        self.coef = as_vector(self.coef, "coef", ndim=2)
        check_length("coef columns", self.coef.shape[1], self.degree)

    def features(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_2d(np.asarray(t, dtype=float))
        cols = [t**d for d in range(1, self.degree + 1)]
        return np.concatenate(cols, axis=1)

    def __call__(self, t):
        t = as_points(t, self.coef.shape[0])
        single = t.ndim == 1
        x = self.features(t)
        flat = np.concatenate(
            [self.coef[:, d - 1] for d in range(1, self.degree + 1)]
        )
        out = self.intercept + x @ flat
        return float(out[0]) if single else out


def fit_linear(treatments: TreatmentMatrix, y) -> GaussianOutcome:
    """Ordinary least squares of y on the treatments, with intercept, by
    full_rank_lstsq on [1, T]: the slopes from the centered Gram matrix that
    fit_ppca factors too, n times the treatments' cached covariance, by a
    certified Cholesky solve and one refinement step, else a pivoted QR,
    whose SingularFitError names the dependent columns (a constant or
    duplicated column, say).
    """
    y = treatments._response(y)
    n, k = treatments.n, treatments.k
    if n <= k + 1:
        raise DimensionError(f"need n > k+1 rows for OLS, got n={n}, k={k}")
    t = treatments.data
    beta = full_rank_lstsq(t, y, treatments.names(), treatments.moments)
    intercept, tau = float(beta[0]), beta[1:]
    resid = y - intercept - t @ tau
    sigma2 = float(resid @ resid) / (n - k - 1)
    # relative to var(y), so the verdict does not depend on the units of y;
    # eps mean(y^2) is the rounding level of var(y) for a constant y
    scale = max(float(np.var(y)), np.finfo(float).eps * float(np.mean(y * y)))
    if sigma2 <= 1e-12 * scale:
        warnings.warn(
            "residual variance is numerically zero; outcome is a deterministic "
            "function of the treatments",
            stacklevel=2,
        )
        sigma2 = max(sigma2, 1e-300)
    return GaussianOutcome(tau_naive=tau, intercept=intercept, sigma2_y_given_t=sigma2)


def fit_probit(treatments: TreatmentMatrix, y, max_iter: int = 100, tol: float = 1e-8) -> BinaryOutcome:
    """Probit maximum likelihood by exact Newton iterations from beta = 0.

    With s = 2y - 1 and margins m = s * (b0 + t'b), the log-likelihood is
    sum log_ndtr(m), so 1 - Phi is never formed by subtraction and nothing
    is clipped. The inverse Mills ratio lam = phi(m) / Phi(m) gives the score
    X'(s lam) and the observed Hessian X' diag(lam (lam + m)) X, which a
    certified Cholesky factorization solves (np.linalg.lstsq's minimum-norm
    step without the certificate, so duplicated columns split equally).
    Armijo backtracking on the exact log-likelihood damps each step; once the
    Newton decrement is below the likelihood's rounding level the full step
    is taken. The fit stops when max |score| < tol and warns at max_iter.

    SeparationError when the start or any trial point b is a witness of
    complete separation: every margin exceeds p eps max_i ||x_i||_1 max|b|,
    the rounding bound of x'b, so every exact margin is positive and the
    likelihood has no finite maximizer. On separated data the Newton
    iterates find a witness within a few steps; on data with a maximum
    likelihood estimate no b is one. Quasi-complete separation (margins
    that can only reach zero) has no witness, and the fit stops at tol.
    """
    return _probit_mle(treatments, y, np.zeros(treatments.k + 1), max_iter, tol)


def _probit_mle(treatments: TreatmentMatrix, y, beta, max_iter: int = 100,
                tol: float = 1e-8) -> BinaryOutcome:
    """fit_probit from the start [intercept, coef...] = beta. Warnings name
    the caller of the public function that called this one."""
    from scipy.special import log_ndtr  # imported on use: a slow import

    y = treatments._response(y)
    n = treatments.n
    vals = np.unique(y)
    if not np.all(np.isin(vals, (0.0, 1.0))) or vals.size != 2:
        raise InputFormatError("probit outcome must be binary with both classes present")
    x = np.column_stack([np.ones(n), treatments.data])
    s = 2.0 * y - 1.0
    # |fl(x_i'b) - x_i'b| <= p eps ||x_i||_1 max|b|, so margins above that
    # bound are positive in exact arithmetic: b separates the data
    round_off = x.shape[1] * np.finfo(float).eps * float(np.max(np.sum(np.abs(x), axis=1)))

    def margins(b):
        m = s * (x @ b)
        if float(np.min(m)) > round_off * float(np.max(np.abs(b))):
            raise SeparationError(
                "probit coefficients classify every observation correctly; data "
                "are separated and the maximum likelihood estimate is unbounded"
            )
        log_cdf = log_ndtr(m)
        return m, log_cdf, float(np.sum(log_cdf))

    m, log_cdf, loglik = margins(beta)
    for _ in range(max_iter):
        mills = np.exp(-0.5 * m * m - _LOG_SQRT_2PI - log_cdf)
        score = x.T @ (s * mills)
        if np.max(np.abs(score)) < tol:
            break
        hess = x.T @ ((mills * (mills + m))[:, None] * x)
        step = certified_cholesky_solve(hess, score, n)
        if step is None:
            step = np.linalg.lstsq(hess, score, rcond=None)[0]
        decrement = float(score @ step)
        # below the rounding level of the likelihood a trial cannot show an
        # ascent, and the full Newton step is the right one
        full = decrement <= 1e-10 * abs(loglik)
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            trial = margins(cand)
            if full or trial[2] >= loglik + 1e-4 * scale * decrement:
                break
            scale *= 0.5
        beta = cand
        m, log_cdf, loglik = trial
    else:
        warnings.warn(
            "probit fit stopped at the iteration cap before the score "
            "converged",
            stacklevel=3,
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
    np.linalg.lstsq returns. A power t_j**d equal to t_j (0/1 treatments)
    copies the column t_j, so gram_lstsq solves only the distinct columns,
    by one Cholesky factor of their centered Gram matrix and one refinement
    step, and each copy of t_j gets an equal share of its coefficient.
    Without its full-rank certificate (a constant or duplicated column, or
    t**2 = -t on {0, -1}) the full design goes to np.linalg.lstsq, an SVD.

    Residual variance uses the population convention (mean squared residual)
    since the effective degrees of freedom of a pluggable regressor are
    unknown.
    """
    y = treatments._response(y)
    n = treatments.n
    if mean_fn is None:
        if degree < 1:
            raise InputFormatError(f"polynomial degree must be at least 1, got {degree}")
        t, k = treatments.data, treatments.k
        powers = [t**d for d in range(2, degree + 1)]
        # dup[d - 2, j]: t_j**d is the column t_j itself
        dup = np.array([np.all(pw == t, axis=0) for pw in powers], dtype=bool)
        dup = dup.reshape(degree - 1, k)
        distinct = [pw[:, ~c] for pw, c in zip(powers, dup) if not c.all()]
        # 0/1 treatments have no distinct power, and t is not copied
        cols = np.hstack([t] + distinct) if distinct else t
        fit = gram_lstsq(cols, y, None if distinct else treatments.moments)
        if fit is not None:
            beta = fit.beta
            # every solution has the same sum over the copies of t_j; the
            # equal split is the one of least norm
            share = beta[1:k + 1] / (1 + dup.sum(axis=0))
            higher = np.zeros(dup.shape)
            higher[~dup] = beta[k + 1:]
            coef = np.vstack([share, np.where(dup, share, higher)]).T
            resid = y - beta[0] - cols @ beta[1:]
        else:
            x = np.hstack([np.ones((n, 1)), t] + powers)
            beta, *_ = np.linalg.lstsq(x, y, rcond=None)
            coef = beta[1:].reshape(degree, k).T
            resid = y - x @ beta
        mean_fn = PolynomialMeanFn(degree=degree, intercept=float(beta[0]), coef=coef)
    else:
        resid = y - np.asarray(mean_fn(treatments.data), dtype=float).reshape(-1)
    sigma2 = float(np.mean(resid**2))
    if sigma2 <= 0:
        raise DegenerateModelError("empirical fit has zero residual variance")
    return EmpiricalOutcome(mean_fn=mean_fn, residual_quantiles=resid, sigma2_y_given_t=sigma2)


def _quantile_type7(sorted_resid: np.ndarray, diff: np.ndarray, p: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Linear interpolation between order statistics, type-7 convention,
    with diff = np.diff(sorted_resid, append=sorted_resid[-1]): the last gap
    is zero, so one residual needs no branch. p lies strictly inside (0, 1),
    so h = p (n - 1) < n - 1 and lo = floor(h) <= max(n - 2, 0). The result
    is built in one array, out (which may be p itself) when given."""
    h = np.multiply(p, sorted_resid.shape[0] - 1, out=out)
    lo = h.astype(np.intp)
    h -= lo
    h *= diff[lo]
    h += sorted_resid[lo]
    return h


def _unit_interval(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p >= 1):
        raise InputFormatError("quantile argument must lie strictly inside (0,1)")
    return p


def conditional_cdf_quantile(model, t):
    """CDF / quantile pair of Y | T=t for a fitted outcome model.

    Both functions are vectorized; the quantile raises on arguments outside
    (0,1). For binary models the CDF is the two-point law at {0,1}.
    """
    from scipy.special import ndtr, ndtri  # imported on use: a slow import

    if isinstance(model, GaussianOutcome):
        mu = float(model.mean(t))
        sd = model.sigma()

        def cdf(y):
            return ndtr((np.asarray(y, dtype=float) - mu) / sd)

        def quantile(p):
            return mu + sd * ndtri(_unit_interval(p))

        return cdf, quantile

    if isinstance(model, EmpiricalOutcome):
        mu = float(model.mean(t))
        resid = model.residual_quantiles
        diff = np.diff(resid, append=resid[-1])
        n = resid.shape[0]
        grid = np.arange(n) / max(n - 1, 1)

        def cdf(y):
            r = np.asarray(y, dtype=float) - mu
            return np.clip(np.interp(r, resid, grid), 0.0, 1.0)

        def quantile(p):
            return mu + _quantile_type7(resid, diff, _unit_interval(p))

        return cdf, quantile

    if isinstance(model, BinaryOutcome):
        p1 = float(np.clip(model.mu_y(t), 1e-12, 1 - 1e-12))

        def cdf(y):
            y = np.asarray(y, dtype=float)
            return np.where(y < 0.0, 0.0, np.where(y < 1.0, 1.0 - p1, 1.0))

        def quantile(p):
            return (_unit_interval(p) > 1.0 - p1).astype(float)

        return cdf, quantile

    raise TypeError(f"unsupported outcome model type {type(model).__name__}")


def save_outcome(model, path, provenance: dict | None = None) -> None:
    """Write a fitted outcome model as JSON. Empirical models serialize only
    with the built-in polynomial mean; custom callables have no stable form."""
    if isinstance(model, GaussianOutcome):
        payload = {
            "kind": "gaussian",
            "tau_naive": model.tau_naive,
            "intercept": model.intercept,
            "sigma2_y_given_t": model.sigma2_y_given_t,
        }
    elif isinstance(model, BinaryOutcome):
        payload = {
            "kind": "probit",
            "probit_coef": model.probit_coef,
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
                "coef": np.asarray(fn.coef, dtype=float),
            },
            "residual_quantiles": model.residual_quantiles,
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
                tau_naive=payload["tau_naive"],
                intercept=payload["intercept"],
                sigma2_y_given_t=payload["sigma2_y_given_t"],
            )
        if kind == "probit":
            return BinaryOutcome(
                probit_coef=payload["probit_coef"],
                probit_intercept=payload["probit_intercept"],
                p_y1=payload["p_y1"],
            )
        if kind == "empirical":
            mean = payload["mean"]
            if mean.get("type") != "polynomial":
                raise InputFormatError(f"unknown mean type {mean.get('type')!r}")
            degree = int(mean["degree"])
            fn = PolynomialMeanFn(degree=degree, intercept=mean["intercept"],
                                  coef=np.reshape(mean["coef"], (-1, degree)))
            return EmpiricalOutcome(
                mean_fn=fn,
                residual_quantiles=payload["residual_quantiles"],
                sigma2_y_given_t=payload["sigma2_y_given_t"],
            )
        raise InputFormatError(f"unknown outcome kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed outcome file {path}: {exc}") from exc
