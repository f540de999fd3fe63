"""Translation between sensitivity vectors and interpretable R2 quantities,
plus observable benchmark R2 values computed from the data at hand."""
from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from ._linalg import RANK_RTOL, as_vector
from .copula import SensitivitySpec
from .errors import CalibrationError, DimensionError
from .factor import TreatmentMatrix
from .outcome import BinaryOutcome, fit_probit

NEGATIVE_R2_WARN = 1e-6


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


def _r2_ols(x: np.ndarray, y: np.ndarray) -> float:
    """In-sample R2 of an intercept OLS fit of y on the columns of x."""
    n = y.shape[0]
    design = np.column_stack([np.ones(n), x]) if x.size else np.ones((n, 1))
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        raise CalibrationError("outcome has zero variance")
    return 1.0 - float(resid @ resid) / tss


def _resolve_columns(k: int, j: Iterable[int] | int) -> list[int]:
    cols = [j] if isinstance(j, (int, np.integer)) else list(j)
    if not cols:
        raise DimensionError("column set must be nonempty")
    for col in cols:
        if not (0 <= col < k):
            raise DimensionError(f"column index {col} outside [0, {k})")
    return sorted(set(int(c) for c in cols))


def partial_r2_treatment(treatments: TreatmentMatrix, y, j) -> float:
    """Partial R2 of treatment columns j on the outcome after controlling
    for all remaining columns: (R2_full - R2_rest) / (1 - R2_rest).

    Tiny negative values from floating-point rounding are clipped to zero;
    larger ones draw a warning first.
    """
    y = as_vector(y, "y")
    if y.shape[0] != treatments.n:
        raise DimensionError("y length must match the number of rows")
    cols = _resolve_columns(treatments.k, j)
    rest = [c for c in range(treatments.k) if c not in cols]
    r2_full = _r2_ols(treatments.data, y)
    r2_rest = _r2_ols(treatments.data[:, rest], y)
    if 1.0 - r2_rest < 1e-12:
        raise CalibrationError(
            "restricted fit already explains the outcome exactly; partial R2 "
            "is undefined"
        )
    partial = (r2_full - r2_rest) / (1.0 - r2_rest)
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
    """Implicit R2 of the treatments in a probit model:
    Var(linear predictor) / (Var + 1). With a column set j, the partial
    version on the implicit scale, comparing full and restricted fits."""
    if probit_model is None:
        probit_model = fit_probit(treatments, y_binary)
    r2_full = _implicit_r2_of_fit(treatments.data, probit_model)
    if j is None:
        return r2_full
    cols = _resolve_columns(treatments.k, j)
    rest = [c for c in range(treatments.k) if c not in cols]
    if not rest:
        r2_rest = 0.0
    else:
        restricted = fit_probit(
            TreatmentMatrix(treatments.data[:, rest]), y_binary
        )
        r2_rest = _implicit_r2_of_fit(treatments.data[:, rest], restricted)
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
    from one QR of X = [1, T]. Dropping column j raises the full RSS by
    beta_j^2 / V_jj, V = (X'X)^{-1} = R^{-1} R^{-T}, so partial R2 is
    (beta_j^2/V_jj) / (beta_j^2/V_jj + RSS) = t_j^2 / (t_j^2 + df)
    (Cinelli & Hazlett 2020). A rank-deficient X (some |R_jj| <= RANK_RTOL
    max |R_ii|) goes through partial_r2_treatment column by column. Feeds
    the calibrate CLI's TSV output."""
    names = list(names) if names is not None else treatments.names()
    if len(names) != treatments.k:
        raise DimensionError("names length must match the number of columns")
    y = as_vector(y, "y")
    if y.shape[0] != treatments.n:
        raise DimensionError("y length must match the number of rows")
    design = np.column_stack([np.ones(treatments.n), treatments.data])
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if r.shape[0] < r.shape[1] or diag.min() <= RANK_RTOL * diag.max():
        return [(nm, partial_r2_treatment(treatments, y, j)) for j, nm in enumerate(names)]
    qty = q.T @ y
    rss = float(np.sum((y - q @ qty) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        raise CalibrationError("outcome has zero variance")
    r_inv = solve_triangular(r, np.eye(r.shape[0]))[1:]
    drop = (r_inv @ qty) ** 2 / np.sum(r_inv**2, axis=1)
    if np.any(rss + drop < 1e-12 * tss):
        raise CalibrationError(
            "restricted fit already explains the outcome exactly; partial R2 "
            "is undefined"
        )
    return list(zip(names, (drop / (drop + rss)).tolist()))
