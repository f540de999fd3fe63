"""Treatment factor model and the conditional confounder distribution.

Treatments are modeled as a linear factor model T = B U + eps with
U ~ N(0, I_m) and eps ~ N(0, sigma2 I_k).  Fitting uses the probabilistic
PCA maximum-likelihood solution; the implied conditional law of the latent
confounder given treatments, U | T=t ~ N(M (t - mean), Sigma_u_given_t),
is what every downstream sensitivity computation consumes.
"""
from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import (PsdRoots, _moments, as_points, as_scalar, as_vector, check_length,
                      fix_column_signs, psd_roots, symmetrize)
from .errors import DegenerateModelError, DimensionError, InputFormatError


@dataclass(frozen=True)
class TreatmentMatrix:
    """Observed treatments: rows are units, columns are treatment variables.
    data is a read-only view of the array passed in, which stays writeable;
    the panel must not change after construction, as moments caches it.
    The panel owns the n axis: every response fitted on it passes
    _response."""

    data: np.ndarray
    column_names: list[str] | None = None

    def __post_init__(self):
        data = as_vector(self.data, "treatment data", ndim=2)
        n, k = data.shape
        if n < 2:
            raise DimensionError(f"need at least 2 rows of treatments, got {n}")
        if k < 1:
            raise DimensionError("need at least 1 treatment column")
        if self.column_names is not None:
            check_length("column_names", len(self.column_names), k)
        data = data.view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Column means and covariance (divisor n) of data, computed once and
        read-only: the factor model, select_dim and the [1, T] fits read them."""
        means, cov = _moments(self.data)
        means.flags.writeable = cov.flags.writeable = False
        return means, cov

    def _response(self, y) -> np.ndarray:
        """y as a finite vector with one entry per row (as_vector) whose sum
        of squares about its mean, which bounds every residual sum of
        squares of a fit on the panel, does not overflow (else
        InputFormatError)."""
        y = as_vector(y, "y", length=self.n)
        with np.errstate(over="ignore", invalid="ignore"):
            spread = float(np.sum((y - y.mean()) ** 2))
        if not math.isfinite(spread):
            raise InputFormatError("the variance of y overflows; rescale it")
        return y

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]

    def names(self) -> list[str]:
        if self.column_names is not None:
            return list(self.column_names)
        return [f"t{j + 1}" for j in range(self.k)]


@dataclass(frozen=True)
class FactorModel:
    """Maximum-likelihood treatment factor model.

    b_hat is k x m (loadings up to rotation), sigma2_t_given_u the isotropic
    treatment noise variance, singular_values the m leading factor scales
    (d_i of B, descending).  treatment_means are the column means removed
    during fitting so raw treatment vectors can be used downstream.
    covariance_eigvals, not serialized, holds the fitted covariance's leading
    min(k, max(m, 10)) eigenvalues, descending, not the whole spectrum.
    """

    b_hat: np.ndarray
    sigma2_t_given_u: float
    m: int
    singular_values: np.ndarray
    treatment_means: np.ndarray = None
    covariance_eigvals: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        b = as_vector(self.b_hat, "b_hat", ndim=2)
        k, m = b.shape
        if not (1 <= self.m < k):
            raise DimensionError(
                f"confounder dimension m={self.m} must satisfy 1 <= m < k={k}; "
                "outside that range the treatment noise variance is not identifiable"
            )
        check_length("b_hat columns", m, self.m)
        sigma2 = as_scalar(self.sigma2_t_given_u, "sigma2_t_given_u", positive=True)
        means = self.treatment_means
        means = np.zeros(k) if means is None else as_vector(means, "treatment_means", length=k)
        object.__setattr__(self, "b_hat", b)
        object.__setattr__(self, "sigma2_t_given_u", sigma2)
        object.__setattr__(self, "singular_values",
                           as_vector(self.singular_values, "singular_values"))
        object.__setattr__(self, "treatment_means", means)

    @property
    def k(self) -> int:
        return self.b_hat.shape[0]


def _as_map(a, m: int) -> np.ndarray:
    """The one rule for a map a of the m confounder coordinates, shared by
    ConditionalConfounder.reparameterized and SensitivitySpec.transformed:
    a finite m x m array (as_vector), invertible, its smallest singular
    value above m eps times its largest (numpy's matrix_rank cutoff), else
    DegenerateModelError."""
    a = as_vector(a, "a", ndim=2, length=m)
    s = np.linalg.svd(a, compute_uv=False)  # descending
    if not s[-1] > s[0] * m * np.finfo(float).eps:
        raise DegenerateModelError("the map a is singular, so it is no change of coordinates")
    return a


@dataclass(frozen=True)
class ConditionalConfounder:
    """Conditional confounder law U | T=t ~ N(coef (t - means), sigma_u_given_t).

    coef is the m x k linear map; sigma_u_given_t does not depend on t.
    treatment_means default to zero (e.g. for externally estimated posteriors
    already expressed on centered treatments).

    sigma_u_given_t is judged and factorized once, on construction, by
    psd_roots: roots holds its rank, root, pseudo-inverse root and null-space
    basis, every downstream computation reads them from there, and
    sigma_u_given_t is the matrix that psd_roots symmetrized.
    """

    coef: np.ndarray
    sigma_u_given_t: np.ndarray
    treatment_means: np.ndarray = None
    roots: PsdRoots = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coef = as_vector(self.coef, "coef", ndim=2)
        m, k = coef.shape
        roots = psd_roots(self.sigma_u_given_t)
        check_length("sigma_u_given_t", roots.matrix.shape[0], m)
        means = self.treatment_means
        means = np.zeros(k) if means is None else as_vector(means, "treatment_means", length=k)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "sigma_u_given_t", roots.matrix)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "treatment_means", means)

    @property
    def m(self) -> int:
        return self.coef.shape[0]

    @property
    def k(self) -> int:
        return self.coef.shape[1]

    @property
    def rank(self) -> int:
        return self.roots.rank

    def full_rank(self) -> bool:
        return self.rank == self.m

    def mu_u_given_t(self, t) -> np.ndarray:
        """Posterior mean of the confounder at a raw treatment vector, or at
        each row of a batch; the confounder owns the k axis (as_points)."""
        t = as_points(t, self.k)
        return (t - self.treatment_means) @ self.coef.T

    def reparameterized(self, a: np.ndarray) -> "ConditionalConfounder":
        """Equivalent representation (A coef, A Sigma A^T) for an invertible
        m x m A (_as_map); SensitivitySpec.transformed maps gamma with it."""
        a = _as_map(a, self.m)
        return ConditionalConfounder(
            coef=a @ self.coef,
            sigma_u_given_t=a @ self.sigma_u_given_t @ a.T,
            treatment_means=self.treatment_means,
        )


@dataclass(frozen=True)
class Contrast:
    """A pair of intervention points t1, t2 with their difference cached."""

    t1: np.ndarray
    t2: np.ndarray
    delta: np.ndarray = field(init=False)

    def __post_init__(self):
        t1 = as_vector(self.t1, "t1")
        t2 = as_vector(self.t2, "t2", length=t1.shape[0])
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        object.__setattr__(self, "delta", t1 - t2)

    @classmethod
    def unit(cls, k: int, j: int) -> "Contrast":
        """The contrast e_j versus 0 in a k-dimensional treatment space."""
        t2 = np.zeros(k)
        t1 = t2.copy()
        t1[j] = 1.0
        # finite, 1-d and of equal length by construction, so the checks of
        # __post_init__ are skipped
        c = object.__new__(cls)
        for name, v in (("t1", t1), ("t2", t2), ("delta", t1.copy())):
            object.__setattr__(c, name, v)
        return c


def ppca_from_covariance(cov: np.ndarray, m: int, treatment_means=None) -> FactorModel:
    """Fit the factor model from a treatment covariance matrix: Tipping-Bishop
    loadings from its m leading eigenpairs, and the mean of the trailing
    eigenvalues, (tr cov - their sum) / (k - m), as the noise variance."""
    from scipy.linalg import eigh  # imported on use: a slow import

    cov = symmetrize(np.asarray(cov, dtype=float))
    k = cov.shape[0]
    if not (1 <= m < k):
        raise DimensionError(
            f"m={m} must satisfy 1 <= m < k={k}; with m >= k the treatment "
            "noise variance is not identifiable from the covariance"
        )
    lam, vec = eigh(cov, subset_by_index=[max(0, k - max(m, 10)), k - 1])
    lam, vec = lam[::-1], vec[:, ::-1]
    sigma2 = float((np.trace(cov) - lam[:m].sum()) / (k - m))
    gaps = lam[:m] - sigma2
    if np.any(gaps <= 0):
        raise DegenerateModelError(
            "leading eigenvalues do not exceed the noise level; "
            f"lambda - sigma2 = {np.round(gaps, 6)}"
        )
    d = np.sqrt(gaps)
    return FactorModel(
        b_hat=fix_column_signs(vec[:, :m]) * d,
        sigma2_t_given_u=sigma2,
        m=m,
        singular_values=d,
        treatment_means=treatment_means,
        covariance_eigvals=lam,
    )


def fit_ppca(treatments: TreatmentMatrix, m: int) -> FactorModel:
    """Maximum-likelihood factor model for the observed treatments, from
    their cached moments. The column means are stored on the returned model
    so downstream code can keep working with raw t vectors.
    """
    n, k = treatments.n, treatments.k
    if n <= k:
        warnings.warn(
            f"n={n} <= k={k}: factor model estimates will be unstable",
            stacklevel=2,
        )
    means, cov = treatments.moments
    return ppca_from_covariance(cov, m, treatment_means=means)


def select_dim(treatments: TreatmentMatrix, method: str = "eigen_gap") -> int:
    """Choose the confounder dimension from the treatment spectrum.

    eigen_gap: the index maximizing the relative eigenvalue drop
    (lambda_i - lambda_{i+1}) / lambda_{i+1} over 1 <= i <= k-2.
    holdout: the m in {1..k-1} minimizing mean held-out per-entry Gaussian
    negative log-likelihood under 5-fold row splits (columns kept intact).
    holdout counts the dimensions of the treatment covariance, and on
    thresholded binary treatments, whose covariance is arcsin(corr(T*))/(2 pi)
    of the latent T*, these exceed the latent factors.
    """
    if treatments.k < 3:
        raise DimensionError("dimension selection needs at least 3 treatment columns")
    lam = np.linalg.eigvalsh(treatments.moments[1])[::-1]
    if lam[0] - lam[-1] <= 1e-9 * max(abs(lam[0]), 1.0):
        raise DegenerateModelError(
            "treatment spectrum is flat: no factor structure to select"
        )
    if method == "eigen_gap":
        ratios = (lam[:-2] - lam[1:-1]) / lam[1:-1]
        return int(np.argmax(ratios)) + 1
    if method == "holdout":
        return int(np.argmin(_holdout_scores(treatments.data))) + 1
    raise InputFormatError(f"unknown method {method!r}")


def _holdout_scores(data: np.ndarray, folds: int = 5, seed: int = 0) -> np.ndarray:
    """Mean held-out per-entry Gaussian NLL of the PPCA fit for m = 1..k-1,
    over row folds of the data."""
    n, k = data.shape
    scores = np.zeros(k - 1)
    for held in np.array_split(np.random.default_rng(seed).permutation(n), folds):
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        train = data[mask]
        mu = train.mean(axis=0)
        lam, vec = np.linalg.eigh(symmetrize(np.cov(train.T, bias=True)))
        lam, vec = lam[::-1], vec[:, ::-1]
        scores += _fold_scores(lam, vec, data[held] - mu)
    return scores


def _fold_scores(lam: np.ndarray, vec: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """Per-entry Gaussian NLL of the centred held-out rows xc under the PPCA
    fit to training eigenpairs (lam descending, vec), for m = 1..k-1.

    The m-factor covariance has eigenvalues lam_i on the leading m
    eigenvectors (the mean of a descending tail never exceeds its head) and
    sigma2_m = mean(lam[m:]) on the rest. Its log-determinant and the
    quadratic form are sums over lam_i and the squared projections
    (xc . v_i)^2, so prefix and suffix cumulative sums give every m at once.
    sigma2_m <= 0 scores inf.
    """
    h, k = xc.shape
    m = np.arange(1, k)
    proj2 = ((xc @ vec) ** 2).sum(axis=0)
    sigma2 = np.cumsum(lam[::-1])[::-1][1:] / (k - m)
    with np.errstate(divide="ignore", invalid="ignore"):
        logdet = np.cumsum(np.log(lam))[:-1] + (k - m) * np.log(sigma2)
        quad = np.cumsum(proj2 / lam)[:-1] + np.cumsum(proj2[::-1])[::-1][1:] / sigma2
        nll = 0.5 * (np.log(2 * np.pi) + logdet / k + quad / (h * k))
    return np.where(sigma2 > 0, nll, np.inf)


def conditional_confounder(fm: FactorModel) -> ConditionalConfounder:
    """Posterior law of U given T under the fitted factor model.

    Uses the m x m solve (B'B + sigma2 I)^{-1} B' rather than inverting the
    k x k treatment covariance, so large treatment counts stay cheap.
    """
    b = fm.b_hat
    m = fm.m
    gram = b.T @ b + fm.sigma2_t_given_u * np.eye(m)
    coef = np.linalg.solve(gram, b.T)
    # I - coef B is symmetric in exact arithmetic; its relative rounding
    # asymmetry grows with d^2 / sigma2 and passes psd_roots' 1e-10 near 1e6
    sigma = symmetrize(np.eye(m) - coef @ b)
    return ConditionalConfounder(
        coef=coef,
        sigma_u_given_t=sigma,
        treatment_means=fm.treatment_means,
    )


def mu_delta(cc: ConditionalConfounder, c: Contrast) -> np.ndarray:
    """Shift in the confounder posterior mean across a contrast: coef (t1 - t2).
    The contrast's length is checked by the one rule (check_length)."""
    check_length("contrast", c.delta.shape[0], cc.k)
    return cc.coef @ c.delta


def _finite_or_null(obj):
    """obj in plain JSON types, with +-inf and NaN as None, in one walk
    dispatched on type."""
    t = type(obj)
    if t is float:
        return obj if math.isfinite(obj) else None
    if t is dict:
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _finite_or_null(obj.tolist())
    return obj


class Table(dict):
    """Equal-length 1-d columns by name (str). _write_json writes a top-level
    Table as a list of records, one per line, with the keys in column
    order."""


_encode = json.JSONEncoder(allow_nan=False).encode


def _distinct_reprs(a: np.ndarray, nonfinite: str | None = None) -> np.ndarray:
    """repr of each entry of a float array, formatted once per distinct bit
    pattern (the int64 view keeps -0.0 and 0.0 apart), as an object array
    shaped like a; +-inf and NaN read nonfinite when it is given."""
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
    uniq, inverse = np.unique(bits, return_inverse=True)
    values = uniq.view(np.float64)
    text = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    if nonfinite is not None:
        text[~np.isfinite(values)] = nonfinite
    return text[inverse].reshape(a.shape)


def _column_text(col) -> list[str]:
    """The JSON text of each entry of a 1-d column. In an array, floats are
    formatted once per distinct bit pattern, +-inf and NaN as null, and bools
    as true/false; each distinct string is encoded once; anything else, such
    as the values of a list of records, entry by entry."""
    if type(col) is np.ndarray:
        if col.ndim != 1:
            raise DimensionError(f"a table column must be 1-d, got shape {col.shape}")
        if col.dtype.kind == "b":
            return np.where(col, "true", "false").tolist()
        if col.dtype.kind == "f":
            return _distinct_reprs(col, "null").tolist()
        col = col.tolist()
    if all(type(v) is str for v in col):
        text = {s: _encode(s) for s in set(col)}
        return [text[s] for s in col]
    return [_encode(_finite_or_null(v)) for v in col]


def _table_lines(table: Table) -> list[str]:
    """One JSON record per row of table: the columns' texts substituted into
    one template of the keys."""
    text = [_column_text(col) for col in table.values()]
    if len({len(t) for t in text}) > 1:
        raise DimensionError("the columns of a table differ in length")
    template = "{%s}" % ", ".join(
        _encode(name).replace("%", "%%") + ": %s" for name in table
    )
    return list(map(template.__mod__, zip(*text)))


def _json_text(value) -> str:
    """The JSON text of one top-level value. A Table, a list of rows or of
    records, or a 2-d float array gets a record or row per line; a 1-d float
    array goes onto one line. Anything but a Table or a float array goes
    through _finite_or_null, and float arrays are formatted by
    _distinct_reprs, as the walk would format their .tolist()."""
    if isinstance(value, Table):
        lines = _table_lines(value)
    elif type(value) is np.ndarray and value.dtype.kind == "f" and value.ndim in (1, 2):
        text = _distinct_reprs(value, "null").tolist()
        if value.ndim == 1:
            return "[" + ", ".join(text) + "]"
        lines = ["[" + ", ".join(row) + "]" for row in text]
    else:
        value = _finite_or_null(value)
        if not (type(value) is list and value and type(value[0]) in (list, dict)):
            return _encode(value)
        lines = list(map(_encode, value))
    return "[\n" + ",\n".join(lines) + "\n]" if lines else "[]"


def _write_json(payload: dict, path, provenance: dict | None = None) -> None:
    """payload, after _provenance if given, one top-level key per line (see
    _json_text). +-inf and NaN become null; allow_nan=False rejects any that
    the walk missed."""
    doc = payload if provenance is None else {"_provenance": provenance, **payload}
    items = [f"{_encode(key)}: {_json_text(value)}" for key, value in doc.items()]
    _write_text("{\n" + ",\n".join(items) + "\n}\n", path)


def _write_text(text: str, path) -> None:
    """text to the file at path, or to stdout when path is None or '-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_json(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read {what} file {path}: {exc}") from exc


def save_confounder(cc: ConditionalConfounder, path, provenance: dict | None = None) -> None:
    payload = {
        "m": cc.m,
        "k": cc.k,
        "coef": cc.coef,
        "sigma_u_given_t": cc.sigma_u_given_t,
        "treatment_means": cc.treatment_means,
    }
    _write_json(payload, path, provenance)


def load_confounder(path) -> ConditionalConfounder:
    """Read a confounder JSON file. ConditionalConfounder checks what it
    holds; anything it refuses raises InputFormatError naming the file."""
    payload = _read_json(path, "confounder")
    try:
        m = int(payload["m"])
        k = int(payload["k"])
        return ConditionalConfounder(
            coef=np.reshape(payload["coef"], (m, k)),
            sigma_u_given_t=np.reshape(payload["sigma_u_given_t"], (m, m)),
            treatment_means=payload.get("treatment_means"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed confounder file {path}: {exc}") from exc


def save_factor_model(fm: FactorModel, path, provenance: dict | None = None) -> None:
    payload = {
        "k": fm.k,
        "m": fm.m,
        "b_hat": fm.b_hat,
        "sigma2_t_given_u": fm.sigma2_t_given_u,
        "singular_values": fm.singular_values,
        "treatment_means": fm.treatment_means,
    }
    _write_json(payload, path, provenance)


def load_factor_model(path) -> FactorModel:
    """Read a factor model JSON file, checked as load_confounder's is."""
    payload = _read_json(path, "factor model")
    try:
        k = int(payload["k"])
        m = int(payload["m"])
        return FactorModel(
            b_hat=np.reshape(payload["b_hat"], (k, m)),
            sigma2_t_given_u=payload["sigma2_t_given_u"],
            m=m,
            singular_values=payload["singular_values"],
            treatment_means=payload.get("treatment_means"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed factor model file {path}: {exc}") from exc
