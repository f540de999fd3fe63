"""Seeded data generators with ground truth attached: linear-Gaussian,
nonlinear-response (Gaussian or binary outcome), sparse-effect GWAS-style
binary treatments, and the rotation sweep tracing the bias bound between the
top factor direction and the loading null space.

Every generator returns the ground truth alongside the data so downstream
checks compare against known quantities, never invented ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._linalg import as_scalar, as_vector, orthonormal_null_basis
from .bounds import worst_case_bias
from .errors import DegenerateModelError, DimensionError
from .factor import (
    ConditionalConfounder,
    Contrast,
    FactorModel,
    TreatmentMatrix,
    conditional_confounder,
)

NONLINEAR_B = np.array([2.0, 0.5, -0.4, 0.2])
NONLINEAR_GAMMA = 2.8


@dataclass(frozen=True)
class SimTruth:
    """Generating-process parameters. tau_true is a coefficient vector for
    linear response surfaces or a tag naming a nonlinear one, in which case
    mean_fn carries the actual response function g with Y = g(T) + gamma'U + eps.
    """

    b_true: np.ndarray
    sigma2_t_given_u: float
    sigma2_y_given_tu: float
    gamma_true: np.ndarray
    tau_true: np.ndarray | str
    seed: int
    binary_y: bool = False
    mean_fn: Callable | None = None
    nonnull_mask: np.ndarray | None = None

    def __post_init__(self):
        b = as_vector(self.b_true, "b_true", ndim=2)
        gamma = as_vector(self.gamma_true, "gamma_true", length=b.shape[1])
        for name in ("sigma2_t_given_u", "sigma2_y_given_tu"):
            object.__setattr__(self, name, as_scalar(getattr(self, name), name, positive=True))
        as_scalar(self.seed, "seed")
        tau = self.tau_true
        if not isinstance(tau, str):
            tau = as_vector(tau, "tau_true", length=b.shape[0])
        elif self.mean_fn is None:
            raise DimensionError("a tagged response surface needs mean_fn")
        object.__setattr__(self, "b_true", b)
        object.__setattr__(self, "gamma_true", gamma)
        object.__setattr__(self, "tau_true", tau)

    @property
    def k(self) -> int:
        return self.b_true.shape[0]

    @property
    def m(self) -> int:
        return self.b_true.shape[1]

    def factor_model(self) -> FactorModel:
        """The exact-parameter factor model (no estimation error)."""
        sv = np.linalg.svd(self.b_true, compute_uv=False)
        return FactorModel(
            b_hat=self.b_true,
            sigma2_t_given_u=self.sigma2_t_given_u,
            m=self.m,
            singular_values=sv,
        )

    def confounder(self) -> ConditionalConfounder:
        return conditional_confounder(self.factor_model())

    def response(self, t: np.ndarray) -> np.ndarray:
        """Structural conditional mean given (T, U=0): tau'T or g(T)."""
        t = np.atleast_2d(np.asarray(t, dtype=float))
        if isinstance(self.tau_true, str):
            return np.asarray(self.mean_fn(t), dtype=float)
        return t @ self.tau_true

    def intervention_mean(self, t) -> float:
        """Closed-form E[Y | do(T=t)] (or P(Y=1 | do(t)) for binary): under
        do(t) the confounder keeps its marginal N(0, I) law."""
        from scipy.special import ndtr  # imported on use: a slow import

        g = float(self.response(np.atleast_2d(as_vector(t, "t")))[0])
        if not self.binary_y:
            return g
        total_sd = math.sqrt(
            self.sigma2_y_given_tu + float(self.gamma_true @ self.gamma_true)
        )
        return float(ndtr(g / total_sd))

    def intervention_mean_mc(self, t, n_draws: int = 10**6, seed: int = 0) -> float:
        """Monte Carlo cross-check of intervention_mean over (U, eps)."""
        rng = np.random.default_rng(seed)
        g = float(self.response(np.atleast_2d(as_vector(t, "t")))[0])
        u = rng.standard_normal(size=(n_draws, self.m))
        eps = rng.standard_normal(n_draws) * math.sqrt(self.sigma2_y_given_tu)
        ytilde = g + u @ self.gamma_true + eps
        if self.binary_y:
            return float(np.mean(ytilde > 0))
        return float(np.mean(ytilde))

    def pate(self, c: Contrast) -> float:
        """Ground-truth intervention contrast (difference scale)."""
        return self.intervention_mean(c.t1) - self.intervention_mean(c.t2)


class SimData(NamedTuple):
    treatments: TreatmentMatrix
    y: np.ndarray
    truth: SimTruth


def _check_sizes(n: int, k: int = 1, m: int = 1) -> None:
    """DimensionError unless n >= 2 rows, k >= 1 treatments and m >= 1
    confounders, the smallest panel and model a generator can draw."""
    for name, value, low in (("n", n, 2), ("k", k, 1), ("m", m, 1)):
        if value < low:
            raise DimensionError(f"{name} = {value} must be at least {low}")


def gen_linear_gaussian(truth: SimTruth, n: int) -> SimData:
    """U ~ N(0, I), T = BU + eps_t, Y = tau'T + gamma'U + eps_y."""
    if isinstance(truth.tau_true, str):
        raise DimensionError("gen_linear_gaussian needs a linear tau_true vector")
    _check_sizes(n, truth.k, truth.m)
    rng = np.random.default_rng(truth.seed)
    u = rng.standard_normal(size=(n, truth.m))
    eps_t = rng.standard_normal(size=(n, truth.k))
    t = u @ truth.b_true.T + math.sqrt(truth.sigma2_t_given_u) * eps_t
    eps_y = rng.standard_normal(n)
    y = t @ truth.tau_true + u @ truth.gamma_true
    y = y + math.sqrt(truth.sigma2_y_given_tu) * eps_y
    return SimData(TreatmentMatrix(t), y, truth)


def naive_closed_form(truth: SimTruth) -> np.ndarray:
    """Population OLS coefficient vector for the linear-Gaussian process:
    tau + coef' gamma, the naive effects the regression converges to."""
    if isinstance(truth.tau_true, str):
        raise DimensionError("closed-form naive effects need a linear tau_true")
    cc = truth.confounder()
    return truth.tau_true + cc.coef.T @ truth.gamma_true


def _nonlinear_g(t: np.ndarray) -> np.ndarray:
    t = np.atleast_2d(np.asarray(t, dtype=float))
    t3 = t[:, 2]
    return (
        3.0 * t[:, 0]
        - t[:, 1]
        + t3 * (t3 > 0)
        + 0.7 * t3 * (t3 <= 0)
        - 0.06 * t[:, 3]
        - 4.0 * t[:, 0] ** 2
    )


def gen_nonlinear(n: int, binary_y: bool = False, seed: int = 0) -> SimData:
    """Four correlated treatments driven by one confounder, with a kinked
    quadratic response; optionally thresholded to a binary outcome."""
    _check_sizes(n)
    truth = SimTruth(
        b_true=NONLINEAR_B[:, None],
        sigma2_t_given_u=1.0,
        sigma2_y_given_tu=1.0,
        gamma_true=np.array([NONLINEAR_GAMMA]),
        tau_true="nonlinear_kinked_quadratic",
        seed=seed,
        binary_y=binary_y,
        mean_fn=_nonlinear_g,
    )
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    t = np.outer(u, NONLINEAR_B) + rng.standard_normal(size=(n, 4))
    ytilde = _nonlinear_g(t) + NONLINEAR_GAMMA * u + rng.standard_normal(n)
    y = (ytilde > 0).astype(float) if binary_y else ytilde
    return SimData(TreatmentMatrix(t), y, truth)


def gen_gwas(
    n: int = 1000,
    k: int = 100,
    m: int = 3,
    frac_large: float = 0.1,
    seed: int = 0,
) -> SimData:
    """Sparse-effect binary-treatment process: latent factors drive a
    Gaussian treatment score thresholded at zero (so each margin is
    Bernoulli(1/2)), most causal effects are near-null, and a confounder
    loading on the first factor inflates every naive estimate.
    """
    _check_sizes(n, k, m)
    if not (0.0 <= frac_large <= 1.0):
        raise DimensionError("frac_large must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    b = rng.normal(0.0, 0.7, size=(k, m))
    u = rng.normal(size=(n, m))
    t_score = u @ b.T + rng.normal(size=(n, k))
    t = (t_score > 0).astype(float)
    tau = rng.uniform(-0.1, 0.1, size=k)
    n_large = int(np.ceil(frac_large * k))
    nonnull = np.zeros(k, dtype=bool)
    if n_large > 0:
        idx = rng.choice(k, size=n_large, replace=False)
        tau[idx] = rng.uniform(-2.0, 2.0, size=n_large)
        nonnull[idx] = True
    gamma = np.zeros(m)
    gamma[0] = 25.0
    y = t @ tau + u @ gamma + rng.normal(size=n)
    truth = SimTruth(
        b_true=b,
        sigma2_t_given_u=1.0,
        sigma2_y_given_tu=1.0,
        gamma_true=gamma,
        tau_true=tau,
        seed=seed,
        nonnull_mask=nonnull,
    )
    return SimData(TreatmentMatrix(t), y, truth)


def rotation_sweep(
    fm_true: FactorModel, sigma_y: float, r2: float, n_theta: int = 50
) -> list[tuple[float, float]]:
    """Worst-case bias along delta(theta) = cos(theta) u1 + sin(theta) n0,
    rotating the contrast from the top factor direction into the loading
    null space; the bound falls from its global maximum to exactly zero.
    n_theta must be at least 2, the two ends."""
    if n_theta < 2:
        raise DimensionError(f"n_theta = {n_theta} must be at least 2")
    cc = conditional_confounder(fm_true)
    u_mat, _, _ = np.linalg.svd(fm_true.b_hat, full_matrices=False)
    u1 = u_mat[:, 0]
    null_basis = orthonormal_null_basis(fm_true.b_hat)
    if null_basis.shape[1] == 0:
        raise DegenerateModelError("loading matrix has no null direction to rotate into")
    n0 = null_basis[:, 0]
    out = []
    for theta in np.linspace(0.0, math.pi / 2, n_theta):
        delta = math.cos(theta) * u1 + math.sin(theta) * n0
        c = Contrast(t1=delta, t2=np.zeros(fm_true.k))
        out.append((float(theta), worst_case_bias(cc, sigma_y, r2, c)))
    return out
