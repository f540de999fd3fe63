"""Translation between sensitivity vectors and interpretable R2 quantities,
plus observable benchmark R2 values computed from the data at hand."""
from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

from ._linalg import as_vector, lstsq
from .copula import SensitivitySpec
from .errors import CalibrationError, DimensionError
from .factor import TreatmentMatrix
from .outcome import BinaryOutcome, _probit_mle, fit_probit

NEGATIVE_R2_WARN = 1e-6
EXACT_RESTRICTED_FIT = (
    "restricted fit already explains the outcome exactly; partial R2 is undefined"
)


def gamma_from_r2_direction(r2: float, direction, sigma_u_given_t) -> SensitivitySpec:
    """gamma = sqrt(r2) Sigma^{-1/2} d for a unit direction d. The round
    trip through SensitivitySpec.from_gamma reproduces r2. Non-unit
    directions are an error, never silently renormalized."""
    return SensitivitySpec.from_r2_direction(r2, direction, sigma_u_given_t)


def gamma_from_signed_r2(signed_r2: float, direction, sigma_u_given_t) -> SensitivitySpec:
    """Signed-R2 convention for one-dimensional sweeps: the sign flips the
    direction, the magnitude is the variance share."""
    sign = 1.0 if signed_r2 >= 0 else -1.0
    direction = as_vector(direction, "direction")
    return SensitivitySpec.from_r2_direction(
        abs(signed_r2), sign * direction, sigma_u_given_t
    )


def _outcome(treatments: TreatmentMatrix, y):
    """y as a vector with one value per row, and its total sum of squares."""
    y = as_vector(y, "y")
    if y.shape[0] != treatments.n:
        raise DimensionError("y length must match the number of rows")
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        raise CalibrationError("outcome has zero variance")
    return y, tss


def _fit_rss(t: np.ndarray, y: np.ndarray, moments=None):
    """The lstsq fit of y on [1, t] and its residual sum of squares."""
    fit = lstsq(t, y, moments)
    resid = y - fit.beta[0] - t @ fit.beta[1:]
    return fit, float(resid @ resid)


def _rest_columns(k: int, j: Iterable[int] | int) -> list[int]:
    """The columns outside the nonempty column set j."""
    cols = [j] if isinstance(j, (int, np.integer)) else list(j)
    if not cols:
        raise DimensionError("column set must be nonempty")
    for col in cols:
        if not (0 <= col < k):
            raise DimensionError(f"column index {col} outside [0, {k})")
    return [c for c in range(k) if c not in cols]


def partial_r2_treatment(treatments: TreatmentMatrix, y, j) -> float:
    """Partial R2 of treatment columns j on the outcome after controlling
    for all remaining columns: (RSS_rest - RSS_full) / RSS_rest, which is
    (R2_full - R2_rest) / (1 - R2_rest), with both intercept fits by
    lstsq.

    Tiny negative values from floating-point rounding are clipped to zero;
    larger ones draw a warning first.
    """
    rest = _rest_columns(treatments.k, j)
    y, tss = _outcome(treatments, y)
    rss_full = _fit_rss(treatments.data, y, treatments.moments)[1]
    rss_rest = _fit_rss(treatments.data[:, rest], y)[1]
    if rss_rest < 1e-12 * tss:
        raise CalibrationError(EXACT_RESTRICTED_FIT)
    partial = (rss_rest - rss_full) / rss_rest
    if partial < 0.0:
        if partial < -NEGATIVE_R2_WARN:
            warnings.warn(
                f"partial R2 = {partial:.3e} clipped to 0; the full fit "
                "explains less than the restricted one",
                stacklevel=2,
            )
        partial = 0.0
    return float(partial)


def _implicit_r2_of_fit(treatments_data: np.ndarray, model: BinaryOutcome) -> float:
    lin = treatments_data @ model.probit_coef + model.probit_intercept
    v = float(np.var(lin, ddof=1)) if lin.shape[0] > 1 else 0.0
    return v / (v + 1.0)


def implicit_r2(
    treatments: TreatmentMatrix,
    y_binary,
    probit_model: BinaryOutcome | None = None,
    j=None,
) -> float:
    """Implicit R2 of the treatments in a probit model (probit_model, or
    fit_probit's fit when it is None): Var(linear predictor) / (Var + 1),
    the McKelvey-Zavoina (1975) pseudo-R2. With a column set j, the partial
    version on the implicit scale, against a probit refit on the other
    columns that starts from the full model's coefficients with the columns
    j dropped, so a table of one call per column takes a few Newton steps
    per column."""
    if probit_model is None:
        probit_model = fit_probit(treatments, y_binary)
    r2_full = _implicit_r2_of_fit(treatments.data, probit_model)
    if j is None:
        return r2_full
    rest = _rest_columns(treatments.k, j)
    r2_rest = 0.0
    if rest:
        t_rest = treatments.data[:, rest]
        start = np.concatenate([[probit_model.probit_intercept], probit_model.probit_coef[rest]])
        r2_rest = _implicit_r2_of_fit(t_rest, _probit_mle(TreatmentMatrix(t_rest), y_binary, start))
    if 1.0 - r2_rest < 1e-12:
        raise CalibrationError(
            "restricted probit already has implicit R2 of 1; partial value "
            "is undefined"
        )
    partial = (r2_full - r2_rest) / (1.0 - r2_rest)
    return float(max(partial, 0.0))


def benchmark_table(
    treatments: TreatmentMatrix, y, names: Sequence[str] | None = None
) -> list[tuple[str, float]]:
    """Per-column benchmark: partial R2 of each treatment given the rest,
    from one lstsq of y on X = [1, T], at any rank (Cinelli & Hazlett 2020).
    Dropping a basis column j raises the full RSS by beta_j^2 / V_jj, with
    V = R11^{-1} R11^{-T} over the basis, R11'R11 its Gram matrix (R the
    Cholesky factor of X'X from the certified centered Gram, or a pivoted
    QR's R), so partial R2 is (beta_j^2/V_jj) / (beta_j^2/V_jj + RSS) =
    t_j^2 / (t_j^2 + df). A column outside the basis scores 0, and so does
    a basis column c that a dependent column i needs, |W_ci| ||x_c|| /
    ||x_i|| > max(n, p) eps kappa with W = R11^{-1} R12 and kappa the
    condition number of the basis at unit column norms: dropping either
    leaves the span of X unchanged. Feeds the calibrate CLI's TSV output."""
    from scipy.linalg import lapack  # imported on use: a slow import

    names = list(names) if names is not None else treatments.names()
    if len(names) != treatments.k:
        raise DimensionError("names length must match the number of columns")
    y, tss = _outcome(treatments, y)
    t = treatments.data
    n, p = t.shape[0], t.shape[1] + 1
    fit, rss = _fit_rss(t, y, treatments.moments)
    rank, basis, dependent = fit.rank, fit.piv[:fit.rank], fit.piv[fit.rank:]
    r_inv = lapack.dtrtri(fit.r[:rank, :rank])[0]
    v_diag = np.sum(r_inv**2, axis=1)
    drop = np.zeros(p)
    drop[basis] = fit.beta[basis] ** 2 / v_diag
    if dependent.size:
        norms = np.concatenate([[np.sqrt(n)], np.linalg.norm(t, axis=0)])
        # the rounding error of W grows with the condition number of the
        # basis with unit-norm columns; in Frobenius norm it is
        # sqrt(rank * sum_j ||x_j||^2 V_jj)
        kappa = np.sqrt(rank * np.sum(norms[basis] ** 2 * v_diag))
        w = np.abs(r_inv @ fit.r[:rank, rank:]) * norms[basis, None]
        needed = w > max(n, p) * np.finfo(float).eps * kappa * norms[dependent]
        drop[basis[needed.any(axis=1)]] = 0.0
    drop = drop[1:]
    if np.any(rss + drop < 1e-12 * tss):
        raise CalibrationError(EXACT_RESTRICTED_FIT)
    return list(zip(names, (drop / (drop + rss)).tolist()))
