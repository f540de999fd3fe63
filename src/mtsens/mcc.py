"""Multiple-contrast optimization: the sensitivity vector that minimizes an
Lp norm of the implied effect vector subject to a confounder-R2 cap.

Whitening z = Sigma^{1/2} gamma turns the cap into the Euclidean ball
||z|| <= sqrt(cap). The L2 problem is solved exactly (least squares plus a
trust-region bisection on the Lagrange multiplier). L1 and Linf run the
Chambolle-Pock primal-dual iteration (Chambolle & Pock 2011) with restarts,
and stop once the duality gap certifies the returned point to a relative
tolerance; the gap is reported with the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import as_vector, sym_inv_sqrt
from .copula import SensitivitySpec
from .errors import CalibrationError, ConvergenceError, DegenerateModelError, DimensionError
from .factor import ConditionalConfounder, TreatmentMatrix
from .outcome import GaussianOutcome

NORMS = ("l1", "l2", "linf")
# primal-dual steps between restart checks
RESTART_EVERY = 64


@dataclass(frozen=True)
class ContrastBank:
    """A batch of contrasts sharing one confounder model: row k of deltas is
    the confounder mean difference of contrast k, naive[k] its naive effect.
    sigma_u_given_t rides along because the R2 constraint needs it."""

    deltas: np.ndarray
    naive: np.ndarray
    sigma_y_given_t: float
    sigma_u_given_t: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=float)
        if deltas.ndim != 2 or deltas.shape[0] < 1:
            raise DimensionError("deltas must be a K x m matrix with K >= 1")
        naive = as_vector(self.naive, "naive")
        if naive.shape[0] != deltas.shape[0]:
            raise DimensionError("naive length must match the number of contrasts")
        if not np.all(np.isfinite(deltas)):
            raise DimensionError("deltas must be finite")
        if self.sigma_y_given_t <= 0:
            raise DegenerateModelError("sigma_y_given_t must be positive")
        sigma = np.asarray(self.sigma_u_given_t, dtype=float)
        if sigma.shape != (deltas.shape[1], deltas.shape[1]):
            raise DimensionError("sigma_u_given_t must be m x m")
        ids = self.ids
        if ids is None:
            ids = tuple(f"c{i + 1}" for i in range(deltas.shape[0]))
        else:
            ids = tuple(str(s) for s in ids)
            if len(ids) != deltas.shape[0]:
                raise DimensionError("ids length must match the number of contrasts")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "naive", naive)
        object.__setattr__(self, "sigma_u_given_t", sigma)
        object.__setattr__(self, "ids", ids)

    @property
    def n_contrasts(self) -> int:
        return self.deltas.shape[0]

    @property
    def m(self) -> int:
        return self.deltas.shape[1]


@dataclass(frozen=True)
class MccResult:
    gamma_star: np.ndarray
    achieved_norm: float
    achieved_r2: float
    norm: str
    r2_cap: float
    lambda_star: float | None
    n_iter: int
    duality_gap: float | None


@dataclass(frozen=True)
class MccReportRow:
    contrast_id: str
    naive: float
    adjusted: float
    shrinkage_ratio: float


def build_bank_unitwise(
    cc: ConditionalConfounder,
    observed: TreatmentMatrix | None,
    outcome: GaussianOutcome,
    treatment_indices: Sequence[int] | None = None,
) -> ContrastBank:
    """Bank of averaged one-unit contrasts: switching treatment j on against
    off in every observed row gives delta t = e_j regardless of the row, so
    row j of the bank is column j of the confounder coefficient map and the
    naive effect is the linear outcome coefficient. observed is only needed
    for dimension validation and contrast names; None skips both."""
    if observed is not None and observed.k != cc.k:
        raise DimensionError("treatments and confounder dimensions disagree")
    if outcome.k != cc.k:
        raise DimensionError("confounder and outcome dimensions disagree")
    if treatment_indices is None:
        treatment_indices = range(cc.k)
    idx = list(treatment_indices)
    names = observed.names() if observed is not None else [
        f"t{i + 1}" for i in range(cc.k)
    ]
    for j in idx:
        if not (0 <= j < cc.k):
            raise DimensionError(f"treatment index {j} outside [0, {cc.k})")
    deltas = cc.coef.T[idx, :]
    naive = outcome.tau_naive[idx]
    return ContrastBank(
        deltas=deltas,
        naive=naive,
        sigma_y_given_t=math.sqrt(outcome.sigma2_y_given_t),
        sigma_u_given_t=cc.sigma_u_given_t,
        ids=tuple(names[j] for j in idx),
    )


def _adjusted_effects(bank: ContrastBank, gamma: np.ndarray) -> np.ndarray:
    return bank.naive - bank.sigma_y_given_t * (bank.deltas @ gamma)


def pate_vector(bank: ContrastBank, spec: SensitivitySpec) -> np.ndarray:
    """Adjusted effect vector naive - sigma_{y|t} * deltas gamma."""
    if spec.m != bank.m:
        raise DimensionError("sensitivity vector dimension does not match the bank")
    return _adjusted_effects(bank, spec.gamma)


def _norm_value(resid: np.ndarray, norm: str) -> float:
    if norm == "l1":
        return float(np.abs(resid).sum())
    if norm == "l2":
        return float(np.linalg.norm(resid))
    return float(np.abs(resid).max())


def _l2_solve(g_mat: np.ndarray, naive: np.ndarray, cap: float, tol: float):
    """Exact L2 minimizer on the ||z|| <= sqrt(cap) ball: least squares when
    interior, else bisection on the multiplier of (G'G + lam I) z = G'naive."""
    z0, *_ = np.linalg.lstsq(g_mat, naive, rcond=None)
    if float(z0 @ z0) <= cap + tol:
        return z0, 0.0, 1
    gram = g_mat.T @ g_mat
    rhs = g_mat.T @ naive
    eye = np.eye(gram.shape[0])

    def z_of(lam: float) -> np.ndarray:
        return np.linalg.solve(gram + lam * eye, rhs)

    hi = 1.0
    it = 0
    while float(z_of(hi) @ z_of(hi)) > cap and it < 200:
        hi *= 2.0
        it += 1
    lo = 0.0
    z = z_of(hi)
    for it2 in range(200):
        mid = 0.5 * (lo + hi)
        z = z_of(mid)
        if float(z @ z) > cap:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(hi, 1.0) and abs(float(z @ z) - cap) < tol:
            break
    lam = hi
    z = z_of(lam)
    return z, lam, it + it2 + 2


def _project_l1_ball(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit L1 ball (Duchi et al. 2008)."""
    if np.abs(v).sum() <= 1.0:
        return v
    u = np.sort(np.abs(v))[::-1]
    excess = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u * np.arange(1, u.size + 1) > excess)[-1]
    return np.sign(v) * np.maximum(np.abs(v) - excess[rho] / (rho + 1), 0.0)


def _primal_dual_solve(g_mat, naive, cap, norm, tol, max_iter, seed):
    """Chambolle-Pock on min_{||z|| <= r} ||a - G z||_p, r = sqrt(cap), and
    its dual max_{||y||_q <= 1} a'y - r ||G'y||; all iterates are feasible,
    so best primal minus best dual bounds the suboptimality. PDLP restarts
    (Applegate et al. 2021): every RESTART_EVERY steps, the current or the
    averaged pair with the smaller gap becomes the new start once that gap
    is a fifth of the last restart's or the epoch spans 36% of all steps,
    and the primal weight w (sigma = w step, tau = step / w) moves halfway,
    in log scale, to the ratio of dual to primal distance travelled.
    Returns (z, gap, iterations)."""
    radius = math.sqrt(cap)
    n_contrasts, m = g_mat.shape
    project = _project_l1_ball if norm == "linf" else (lambda v: np.clip(v, -1.0, 1.0))
    # tau * sigma * ||G||^2 < 1; the first weight balances the two balls' radii
    dual_radius = math.sqrt(n_contrasts) if norm == "l1" else 1.0
    spectral = float(np.linalg.norm(g_mat, 2))
    step = 0.99 / spectral if spectral > 0.0 else 1.0
    weight = dual_radius / radius

    def to_ball(z):
        nz = float(np.linalg.norm(z))
        return z * (radius / nz) if nz > radius else z

    def score(gz, y, gy):
        dual = float(naive @ y) - radius * float(np.linalg.norm(gy))
        return _norm_value(naive - gz, norm), dual

    z = z_anchor = to_ball(np.random.default_rng(seed).normal(size=m))
    y = y_anchor = np.zeros(n_contrasts)
    gz = gz_bar = g_mat @ z
    p_best, z_best, d_best = _norm_value(naive - gz, norm), z, -math.inf
    z_sum, y_sum, since, gap_at_restart = 0.0, 0.0, 0, math.inf
    for t in range(1, max_iter + 1):
        y = project(y + (step * weight) * (naive - gz_bar))
        gy = g_mat.T @ y
        z = to_ball(z + (step / weight) * gy)
        gz_new = g_mat @ z
        gz, gz_bar = gz_new, 2.0 * gz_new - gz
        p, d = score(gz, y, gy)
        if p < p_best:
            p_best, z_best = p, z
        d_best = max(d_best, d)
        z_sum, y_sum, since = z_sum + z, y_sum + y, since + 1
        if since % RESTART_EVERY == 0:
            z_avg, y_avg = z_sum / since, y_sum / since
            p_avg, d_avg = score(g_mat @ z_avg, y_avg, g_mat.T @ y_avg)
            if p_avg < p_best:
                p_best, z_best = p_avg, z_avg
            d_best = max(d_best, d_avg)
            p, d, z_next, y_next = min(
                (p, d, z, y), (p_avg, d_avg, z_avg, y_avg), key=lambda c: c[0] - c[1]
            )
            if p - d <= 0.2 * gap_at_restart or since >= 0.36 * t:
                dz = np.linalg.norm(z_next - z_anchor)
                dy = np.linalg.norm(y_next - y_anchor)
                if dz > 1e-10 * radius and dy > 1e-10 * dual_radius:
                    weight = math.sqrt(weight * dy / dz)
                z = z_anchor = z_next
                y = y_anchor = y_next
                gz = gz_bar = g_mat @ z
                z_sum, y_sum, since, gap_at_restart = 0.0, 0.0, 0, p - d
        if p_best - d_best <= tol * max(1.0, p_best):
            return z_best, max(p_best - d_best, 0.0), t
    raise ConvergenceError(
        f"{norm} duality gap {p_best - d_best:.3e} still above tolerance after "
        f"{max_iter} iterations",
        last_iterate=z_best,
    )


def mcc_minimize(
    bank: ContrastBank,
    norm: str = "l2",
    r2_cap: float = 1.0,
    tol: float | None = None,
    max_iter: int = 50000,
    seed: int = 0,
) -> MccResult:
    """Minimize ||naive - sigma_{y|t} deltas gamma||_p over
    gamma' Sigma gamma <= r2_cap.

    L2 is exact: tol (default 1e-8) bounds the multiplier bisection and
    duality_gap is None, the KKT system being its certificate. L1 and Linf
    run Chambolle-Pock from a random feasible start drawn with seed and stop
    once best primal minus best dual value is at most tol * max(1, primal)
    (default tol 1e-9); the result carries that gap, and n_iter counts the
    primal-dual steps. ConvergenceError, with the best iterate attached,
    if max_iter steps do not close the gap.
    """
    norm = norm.lower()
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}")
    if not (0.0 <= r2_cap <= 1.0):
        raise CalibrationError(f"r2_cap = {r2_cap:.6g} outside [0, 1]")
    if tol is None:
        tol = 1e-8 if norm == "l2" else 1e-9

    sigma = bank.sigma_u_given_t
    eigs = np.linalg.eigvalsh(sigma)
    if eigs.min() <= 1e-12 * max(eigs.max(), 1.0):
        raise DegenerateModelError(
            "sigma_u_given_t is singular; the R2 ball is degenerate and the "
            "whitened problem is ill-posed"
        )
    root_inv = sym_inv_sqrt(sigma)
    g_mat = bank.sigma_y_given_t * (bank.deltas @ root_inv)

    lam = gap = None
    if r2_cap == 0.0:
        z, n_iter = np.zeros(bank.m), 0
        lam, gap = (0.0, None) if norm == "l2" else (None, 0.0)
    elif norm == "l2":
        z, lam, n_iter = _l2_solve(g_mat, bank.naive, r2_cap, tol)
    else:
        z, gap, n_iter = _primal_dual_solve(
            g_mat, bank.naive, r2_cap, norm, tol, max_iter, seed
        )
    gamma = root_inv @ z
    return MccResult(
        gamma_star=gamma,
        achieved_norm=_norm_value(bank.naive - g_mat @ z, norm),
        achieved_r2=float(gamma @ sigma @ gamma),
        norm=norm,
        r2_cap=r2_cap,
        lambda_star=lam,
        n_iter=n_iter,
        duality_gap=gap,
    )


def mcc_report(bank: ContrastBank, gamma_star) -> list[MccReportRow]:
    """Per-contrast naive vs adjusted table for a candidate sensitivity
    vector; shrinkage_ratio is adjusted/naive (nan when naive is zero)."""
    gamma = as_vector(gamma_star, "gamma_star")
    if gamma.shape[0] != bank.m:
        raise DimensionError("gamma_star dimension does not match the bank")
    adjusted = _adjusted_effects(bank, gamma)
    return [
        MccReportRow(
            contrast_id=cid,
            naive=float(nv),
            adjusted=float(adj),
            shrinkage_ratio=float(adj / nv) if nv != 0.0 else math.nan,
        )
        for cid, nv, adj in zip(bank.ids, bank.naive, adjusted)
    ]
