"""Single-treatment sensitivity analysis with an observed proxy for the
confounder: reduced-form fits, the feasible domain of the confounder-variance
parameter, the adjusted effect along it, and the implied effect bounds.

The proxy Z is standardized to unit variance, so the sensitivity parameter
sigma_u2 = Var(U) lives in (0, 1]: U explains at most all of the proxy.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from ._linalg import as_scalar, as_vector, full_rank_lstsq
from .bounds import IgnoranceRegion
from .errors import DegenerateModelError, DimensionError, PositivityError

DOMAIN_EPS = 1e-9


@dataclass(frozen=True)
class ProxyFit:
    """Reduced-form quantities: tilde_beta from the treatment-on-proxy
    regression, (tilde_tau, tilde_gamma) from the outcome-on-(treatment,
    proxy) regression, and the population-convention residual variances."""

    tilde_beta: float
    tilde_gamma: float
    tilde_tau: float
    sigma2_t: float
    sigma2_t_given_z: float
    sigma2_y_given_tz: float

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = as_scalar(getattr(self, name), name, positive=name.startswith("sigma2"))
            object.__setattr__(self, name, value)
        if self.sigma2_t_given_z > self.sigma2_t * (1 + 1e-12):
            raise DegenerateModelError(
                "conditional treatment variance exceeds the marginal one"
            )


def fit_proxy(y, t, z) -> ProxyFit:
    """OLS of T on Z and of Y on (T, Z), with Z standardized to unit variance
    first. Residual variances use the 1/n convention, which keeps
    sigma2_t_given_z <= sigma2_t an exact identity.
    """
    y = as_vector(y, "y")
    t = as_vector(t, "t")
    z = as_vector(z, "z")
    n = y.shape[0]
    if t.shape[0] != n or z.shape[0] != n:
        raise DimensionError("y, t, z must have equal length")
    if n < 4:
        raise DimensionError("proxy fit needs at least 4 observations")
    z_sd = float(np.std(z))
    if z_sd <= 0:
        raise DegenerateModelError("proxy has zero variance")
    z = (z - z.mean()) / z_sd

    coef_t = full_rank_lstsq(z[:, None], t, ["z"])
    resid_t = t - coef_t[0] - coef_t[1] * z

    coef_y = full_rank_lstsq(np.column_stack([t, z]), y, ["t", "z"])
    resid_y = y - coef_y[0] - coef_y[1] * t - coef_y[2] * z

    return ProxyFit(
        tilde_beta=float(coef_t[1]),
        tilde_gamma=float(coef_y[2]),
        tilde_tau=float(coef_y[1]),
        sigma2_t=float(np.var(t)),
        sigma2_t_given_z=float(np.mean(resid_t**2)),
        sigma2_y_given_tz=float(np.mean(resid_y**2)),
    )


def sigma_u2_domain(fit: ProxyFit) -> tuple[float, float]:
    """Feasible interval of the confounder variance:
    [(g2 s_tz + b2 s_ytz) / (g2 s_tz + s_t s_ytz), 1]."""
    g2 = fit.tilde_gamma**2
    b2 = fit.tilde_beta**2
    num = g2 * fit.sigma2_t_given_z + b2 * fit.sigma2_y_given_tz
    den = g2 * fit.sigma2_t_given_z + fit.sigma2_t * fit.sigma2_y_given_tz
    lo = num / den
    if fit.tilde_gamma == 0.0 and fit.tilde_beta == 0.0:
        warnings.warn(
            "proxy carries no information about treatment or outcome; the "
            "sensitivity domain degenerates to [0, 1]",
            stacklevel=2,
        )
    return (min(lo, 1.0), 1.0)


def tau_adjusted(fit: ProxyFit, sigma_u2: float) -> float:
    """Causal effect implied by a confounder variance sigma_u2:
    tilde_tau - tilde_gamma tilde_beta (1 - sigma_u2) / (sigma2_t sigma_u2 - tilde_beta^2).

    The lower domain endpoint violates positivity (the confounder there is a
    deterministic function of the proxy and treatment), so sigma_u2 must sit
    strictly inside the domain.
    """
    lo, hi = sigma_u2_domain(fit)
    if sigma_u2 > hi:
        raise PositivityError(
            f"sigma_u2 = {sigma_u2:.6g} exceeds the proxy variance bound 1"
        )
    if sigma_u2 <= lo + DOMAIN_EPS:
        raise PositivityError(
            f"sigma_u2 = {sigma_u2:.6g} is at or below the domain endpoint "
            f"{lo:.6g}, where the positivity condition fails"
        )
    prod = fit.tilde_gamma * fit.tilde_beta
    if prod == 0.0:
        return fit.tilde_tau
    den = fit.sigma2_t * sigma_u2 - fit.tilde_beta**2
    return fit.tilde_tau - prod * (1.0 - sigma_u2) / den


def tau_bounds(fit: ProxyFit) -> IgnoranceRegion:
    """Effect range over the whole feasible domain. One endpoint is always
    tilde_tau (no confounding beyond the proxy); the other is the
    positivity-limit value, on the side fixed by sign(tilde_gamma *
    tilde_beta). Degenerate at tilde_tau when that product vanishes."""
    naive = fit.tilde_tau
    prod = fit.tilde_gamma * fit.tilde_beta
    if prod == 0.0:
        return IgnoranceRegion(naive, naive, naive, 1.0, True)
    # the limit of tau_adjusted at the lower domain endpoint
    other = fit.tilde_tau - fit.tilde_beta * fit.sigma2_y_given_tz / (
        fit.tilde_gamma * fit.sigma2_t_given_z
    )
    lower, upper = (other, naive) if prod > 0 else (naive, other)
    return IgnoranceRegion(naive, lower, upper, 1.0, True)
