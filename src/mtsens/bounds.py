"""Closed-form confounding bias, worst-case bias bounds, ignorance regions,
robustness values, and the singular-value geometry of the bound.

Bias here always means the gap between the naive conditional-mean contrast
and the intervention contrast under a Gaussian-copula confounding model at
a given confounder-variance share r2. Worst cases are taken over every
sensitivity vector gamma with gamma' Sigma_{u|t} gamma <= r2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import as_r2, check_length, orthonormal_null_basis
from .copula import SensitivitySpec
from .errors import DegenerateModelError, InputFormatError
from .factor import ConditionalConfounder, Contrast, FactorModel, mu_delta

REASON_ROW_SPACE = (
    "confounder mean difference has a component outside the row space of a "
    "singular sigma_u_given_t, so the bias can be made arbitrarily large"
)
REASON_TREATMENT_R2 = (
    "treatment-confounder R2 reaches 1, so the bias diverges"
)


@dataclass(frozen=True)
class IgnoranceRegion:
    """Interval of intervention contrasts consistent with confounding up to
    r2_cap. Symmetric about the naive value for Gaussian outcomes; risk-ratio
    regions are generally asymmetric. Unbounded regions carry infinite
    endpoints and a reason string.
    """

    naive: float
    lower: float
    upper: float
    r2_cap: float
    bounded: bool
    reason: str | None = None

    def __post_init__(self):
        as_r2(self.r2_cap, "r2_cap")
        if self.bounded:
            if not (self.lower <= self.naive <= self.upper):
                raise InputFormatError(
                    f"region [{self.lower:.6g}, {self.upper:.6g}] does not "
                    f"contain the naive value {self.naive:.6g}"
                )
        else:
            if math.isfinite(self.lower) or math.isfinite(self.upper):
                raise InputFormatError("unbounded region must have infinite endpoints")

    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


class WorstCaseDirection(NamedTuple):
    direction: np.ndarray
    defined: bool


class RobustnessValue(NamedTuple):
    value: float
    robust: bool


class ContrastBoundSweep(NamedTuple):
    max_bias: float
    argmax_delta: np.ndarray
    null_space_basis: np.ndarray


def bias_closed_form(
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    sigma_y_given_t: float,
    c: Contrast,
) -> float:
    """Confounding bias of the naive contrast under a specific gamma:
    sigma_{y|t} * gamma'(mu_{u|t1} - mu_{u|t2}), gamma on the standardized
    scale. gamma must have cc's m, and the contrast cc's k (check_length).
    """
    check_length("gamma", spec.m, cc.m)
    return float(sigma_y_given_t * (spec.gamma @ mu_delta(cc, c)))


def _whitened_mu_delta(cc: ConditionalConfounder, c: Contrast):
    """Sigma^{-1/2} mu_{u|delta t} from the confounder's cached roots (the
    pseudo-inverse root when Sigma is singular), or None when the mean
    difference leaves the row space of Sigma (the unbounded case)."""
    mu = mu_delta(cc, c)
    if cc.roots.leaves_row_space(mu):
        return None
    return cc.roots.inv_root @ mu


def worst_case_bias(
    cc: ConditionalConfounder,
    sigma_y_given_t: float,
    r2: float,
    c: Contrast,
) -> float:
    """Largest |bias| over all gamma with gamma' Sigma gamma <= r2.

    sigma_{y|t} * sqrt(r2) * ||Sigma^{-1/2} mu_{u|delta t}||, read from the
    factorization cached on cc: the pseudo-inverse root when Sigma is
    singular but the mean difference stays in its row space, math.inf when
    it does not. Singular means rank below m under the one rank rule of
    psd_roots, the same verdict mcc_minimize and intervention_mean_general
    reach.
    """
    r2 = as_r2(r2, "r2")
    w = _whitened_mu_delta(cc, c)
    if w is None:
        return math.inf
    return float(sigma_y_given_t * math.sqrt(r2) * np.linalg.norm(w))


def worst_case_direction(cc: ConditionalConfounder, c: Contrast) -> WorstCaseDirection:
    """Unit direction d* maximizing the bias: proportional to
    Sigma^{-1/2} mu_{u|delta t}, signed so the bias is positive. Undefined
    (zero vector, defined=False) when the mean difference vanishes or the
    bias is unbounded.
    """
    w = _whitened_mu_delta(cc, c)
    if w is None:
        return WorstCaseDirection(np.zeros(cc.m), False)
    nrm = float(np.linalg.norm(w))
    if nrm == 0.0:
        return WorstCaseDirection(np.zeros(cc.m), False)
    return WorstCaseDirection(w / nrm, True)


def ignorance_region(
    naive_effect: float,
    cc: ConditionalConfounder,
    sigma_y_given_t: float,
    r2: float,
    c: Contrast,
) -> IgnoranceRegion:
    """naive +/- worst_case_bias at cap r2, with the unbounded flag
    propagated."""
    bias = worst_case_bias(cc, sigma_y_given_t, r2, c)
    if math.isinf(bias):
        return IgnoranceRegion(
            naive=float(naive_effect),
            lower=-math.inf,
            upper=math.inf,
            r2_cap=float(r2),
            bounded=False,
            reason=REASON_ROW_SPACE,
        )
    return IgnoranceRegion(
        naive=float(naive_effect),
        lower=float(naive_effect) - bias,
        upper=float(naive_effect) + bias,
        r2_cap=float(r2),
        bounded=True,
    )


def contrast_bound_sweep(
    fm: FactorModel, sigma_y_given_t: float, r2: float
) -> ContrastBoundSweep:
    """Worst case over unit treatment contrasts as well as over gamma.

    max_bias = sqrt(d1^2/(d1^2 + sigma2) * sigma2_{y|t}/sigma2 * r2) where d1
    is the top singular value of the loading matrix; attained at delta t equal
    to the first left singular vector. The returned null-space basis spans the
    contrast directions with exactly zero bias (orthogonal to every loading
    column).
    """
    r2 = as_r2(r2, "r2")
    b = fm.b_hat
    s2 = fm.sigma2_t_given_u
    u, sv, _ = np.linalg.svd(b, full_matrices=False)
    d1 = float(sv[0]) if sv.size else 0.0
    max_bias = math.sqrt(d1**2 / (d1**2 + s2) * sigma_y_given_t**2 / s2 * r2)
    if d1 > 0:
        argmax = u[:, 0].copy()
        if argmax[np.argmax(np.abs(argmax))] < 0:
            argmax = -argmax
    else:
        argmax = np.zeros(fm.k)
    null_basis = orthonormal_null_basis(b)
    return ContrastBoundSweep(max_bias=max_bias, argmax_delta=argmax, null_space_basis=null_basis)


def robustness_value(
    naive_effect: float,
    cc: ConditionalConfounder,
    sigma_y_given_t: float,
    c: Contrast,
) -> RobustnessValue:
    """Smallest r2 at which the ignorance region touches zero:
    naive^2 / (sigma2_{y|t} ||Sigma^{-1/2} mu_{u|delta t}||^2), clipped to 1
    with robust=True when even r2 = 1 cannot explain the effect away.
    """
    naive = float(naive_effect)
    if naive == 0.0:
        return RobustnessValue(0.0, False)
    w = _whitened_mu_delta(cc, c)
    if w is None:
        # any positive confounding share suffices when the bias is unbounded
        return RobustnessValue(0.0, False)
    denom = sigma_y_given_t**2 * float(w @ w)
    if denom == 0.0:
        # no contrast-aligned confounding path exists; the effect is identified
        return RobustnessValue(1.0, True)
    rv = naive**2 / denom
    if rv > 1.0:
        return RobustnessValue(1.0, True)
    return RobustnessValue(rv, False)


def single_treatment_bias(
    r2_t_u: float, r2_y_u_t: float, sigma_y_given_t: float, sigma_t: float
) -> float:
    """Worst-case bias for a single scalar treatment, parameterized by the
    treatment-confounder R2 and the outcome-confounder partial R2. The two
    sigma arguments are standard deviations. Returns math.inf at
    r2_t_u = 1.
    """
    as_r2(r2_t_u, "r2_t_u")
    as_r2(r2_y_u_t, "r2_y_u_t")
    if sigma_y_given_t <= 0 or sigma_t <= 0:
        raise DegenerateModelError("standard deviations must be positive")
    if r2_t_u == 1.0:
        return math.inf
    return math.sqrt(
        r2_t_u / (1.0 - r2_t_u) * r2_y_u_t * sigma_y_given_t**2 / sigma_t**2
    )
