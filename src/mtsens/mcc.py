"""Multiple-contrast optimization: the sensitivity vector that minimizes an
Lp norm of the implied effect vector subject to a confounder-R2 cap.

Whitening z = Sigma^{1/2} gamma turns the cap into the Euclidean ball
||z|| <= r = sqrt(cap), so every norm solves min_{||z|| <= r} ||a - G z||_p
in m coordinates. L2 is exact: least squares when interior, else one
eigendecomposition of G'G and a Newton iteration on the secular equation
for the Lagrange multiplier. L1 and Linf run a log-barrier Newton method
(Boyd & Vandenberghe 2004, ch. 11) with an m x m (Linf: (m+1) x (m+1))
system per step; after each centering an active-set crossover turns the
sorted residuals into exact primal and dual candidates, the dual one from a
small nonnegative least-squares solve (_linalg.nnls: Lawson & Hanson's
active-set method in numpy, capped at 3n iterations, its nonnegative
iterate used at the cap). The solve stops
once best primal minus best dual value, both taken at feasible points,
certifies the returned point to a relative tolerance; that duality gap is
reported with the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import as_vector, nnls, psd_roots
from .copula import SensitivitySpec
from .errors import (
    CalibrationError,
    ConvergenceError,
    DegenerateModelError,
    DimensionError,
    InputFormatError,
)
from .factor import ConditionalConfounder, TreatmentMatrix
from .outcome import GaussianOutcome

NORMS = ("l1", "l2", "linf")
# Newton decrement^2 / 2 below which a centering ends
_CENTERED = 0.1
# barrier weight growth between centerings
_GROWTH = 20.0


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
    """Exact L2 minimizer on the ||z|| <= r ball, r = sqrt(cap): least squares
    when interior; else, from one eigendecomposition G'G = V diag(d) V', the
    multiplier lam >= 0 where z(lam) = V diag(1/(d + lam)) V'G'a has norm r.
    1/||z(lam)|| is increasing in lam, nearly linear (exactly so for one
    eigenvalue), and bracketed by [||V'G'a||/r - d_max, ||V'G'a||/r - d_min];
    Newton on 1/||z|| - 1/r falls back to bisection when it leaves the
    bracket (More & Sorensen 1983)."""
    z0, *_ = np.linalg.lstsq(g_mat, naive, rcond=None)
    if float(z0 @ z0) <= cap + tol:
        return z0, 0.0, 1
    d, vec = np.linalg.eigh(g_mat.T @ g_mat)
    d = np.maximum(d, 0.0)
    beta = vec.T @ (g_mat.T @ naive)
    beta2 = beta * beta
    radius = math.sqrt(cap)
    scale = math.sqrt(beta2.sum()) / radius
    lo, lam = max(0.0, scale - d[-1]), scale - d[0]
    hi = lam
    for it in range(1, 101):
        w = beta2 / (d + lam) ** 2
        norm_z = math.sqrt(w.sum())
        if abs(norm_z - radius) <= 1e-14 * radius or hi - lo <= 1e-15 * hi:
            break
        if norm_z > radius:
            lo = lam
        else:
            hi = lam
        slope = float((w / (d + lam)).sum()) / norm_z**3
        lam = lam - (1.0 / norm_z - 1.0 / radius) / slope
        if not lo <= lam <= hi or lam <= 0.0:
            lam = 0.5 * (lo + hi)
    return vec @ (beta / (d + lam)), lam, it + 1


def _to_ball(z: np.ndarray, cap: float) -> np.ndarray:
    nz2 = float(z @ z)
    return z * math.sqrt(cap / nz2) if nz2 > cap else z


def _l1_barrier(g_mat, naive, cap, t, x):
    """Barrier t sum(s) - sum(log(s^2 - r^2)) - log(cap - ||z||^2) with the
    slacks at their minimizer s = 1/t + hypot(1/t, r), where s^2 - r^2 =
    2s/t, so Newton runs in z alone. Returns the value, the gradient, the
    Hessian and the dual point y = r/s, inside the unit box; outside the
    ball, the value is inf and nothing else is computed."""
    r = naive - g_mat @ x
    h = np.hypot(1.0 / t, r)
    s = h + 1.0 / t
    q = cap - float(x @ x)
    if q <= 0.0:
        return math.inf, None, None, None
    phi = t * float(s.sum()) - float(np.log((2.0 / t) * s).sum()) - math.log(q)
    y = r / s
    grad = (2.0 / q) * x - t * (g_mat.T @ y)
    hess = (g_mat.T * (1.0 / (h * s))) @ g_mat + (4.0 / q**2) * np.outer(x, x)
    hess[np.diag_indices_from(hess)] += 2.0 / q
    return phi, grad, hess, y


def _linf_barrier(g_mat, naive, cap, t, x):
    """Barrier t s0 - sum(log(s0 - r)) - sum(log(s0 + r)) - log(cap - ||z||^2)
    in x = (z, s0), returned as for L1; the dual point is w = 1/(s0 - r) -
    1/(s0 + r) scaled to the unit L1 sphere."""
    z, s0 = x[:-1], x[-1]
    r = naive - g_mat @ z
    below, above = s0 - r, s0 + r
    q = cap - float(z @ z)
    if q <= 0.0 or below.min() <= 0.0 or above.min() <= 0.0:
        return math.inf, None, None, None
    phi = t * s0 - float(np.log(below * above).sum()) - math.log(q)
    u, v = 1.0 / below, 1.0 / above
    w = u - v
    uu, vv = u * u, v * v
    m = z.shape[0]
    grad = np.empty(m + 1)
    grad[:m] = (2.0 / q) * z - g_mat.T @ w
    grad[m] = t - float((u + v).sum())
    hess = np.empty((m + 1, m + 1))
    hess[:m, :m] = (g_mat.T * (uu + vv)) @ g_mat + (4.0 / q**2) * np.outer(z, z)
    hess[:m, m] = hess[m, :m] = g_mat.T @ (uu - vv)
    hess[m, m] = float((uu + vv).sum())
    hess[np.arange(m), np.arange(m)] += 2.0 / q
    return phi, grad, hess, w / max(float(np.abs(w).sum()), 1e-300)


def _max_step(g_mat, naive, cap, x, dx) -> float:
    """Largest step along dx that keeps every barrier argument positive:
    the root of ||z + alpha dz||^2 = cap, and for Linf, x = (z, s0), the
    first slab side s0 -+ r to reach zero."""
    m = g_mat.shape[1]
    z, dz = x[:m], dx[:m]
    a, b, c = float(dz @ dz), float(z @ dz), cap - float(z @ z)
    alpha = math.inf
    if a > 0.0:
        root = math.sqrt(b * b + a * c)
        alpha = c / (root + b) if b > 0.0 else (root - b) / a
    if x.shape[0] > m:
        r, dr = naive - g_mat @ z, g_mat @ dz
        s0, ds = x[m], dx[m]
        for slack, rate in ((s0 - r, ds + dr), (s0 + r, ds - dr)):
            neg = rate < 0.0
            if np.any(neg):
                alpha = min(alpha, float(np.min(slack[neg] / -rate[neg])))
    return alpha


def _affine_sphere_points(rows, rhs, c, cap, anchor):
    """Primal candidates, one per active-set size: with the first k rows
    that are linearly independent picked, the z on {row_i'z = rhs_i} that
    maximizes c'z in the ball, i.e. the min-norm point plus the projected c
    scaled to the sphere, or at k = m the vertex itself. Where c'z is flat
    on the affine set, the candidate is the anchor's projection onto it.
    Yields (z, the positions of the picked rows)."""
    m = c.shape[0]
    basis, tri = np.zeros((m, m)), np.zeros((m, m))
    picked: list[int] = []
    c_norm = float(np.linalg.norm(c))
    pos = 0
    while True:
        k = len(picked)
        q = basis[:, :k]
        z = q @ np.linalg.solve(tri[:k, :k], rhs[picked]) if k else np.zeros(m)
        if k < m:
            pc = c - q @ (q.T @ c)
            pc_norm = float(np.linalg.norm(pc))
            rest = cap - float(z @ z)
            if pc_norm <= 1e-12 * c_norm:
                # c'z is flat on the affine set: project the anchor onto it
                z = z + anchor - q @ (q.T @ anchor)
            elif rest > 0.0:
                z = z + pc * (math.sqrt(rest) / pc_norm)
        yield _to_ball(z, cap), list(picked)
        if k == m:
            return
        # Gram-Schmidt, twice, of the next row against the rows picked
        while pos < rows.shape[0]:
            v = rows[pos]
            coef = q.T @ v
            w = v - q @ coef
            fix = q.T @ w
            w -= q @ fix
            w_norm = float(np.linalg.norm(w))
            pos += 1
            if w_norm > 1e-9 * float(np.linalg.norm(v)):
                tri[k, :k], tri[k, k] = coef + fix, w_norm
                basis[:, k] = w / w_norm
                picked.append(pos - 1)
                break
        else:
            return


def _dual_candidate(g_mat, naive, cap, norm, tol, z, picked):
    """A y in the dual norm's unit ball that is optimal when z is: the
    stationarity G'y = mu z (mu >= 0 on the sphere, 0 inside it), solved by
    nonnegative least squares for the multipliers of the rows active at z
    (the picked rows, and those within 1e-2 tol of active), the others held
    at their subgradient. L1 takes y_i = 2 lam_i - 1 with lam_i, 1 - lam_i
    >= 0; Linf takes y_i = sign(r_i) lam_i with sum(lam) = 1. The sign
    constraints keep ties (degenerate vertices) exact, where a plain
    least-squares y would leave the ball and be clipped. The solve is
    _linalg.nnls, Lawson & Hanson's active-set method; should it stop at its
    cap of 3n iterations, its iterate is still nonnegative, and the clip
    (L1) or the scaling (Linf) below keeps y in the dual ball, so an
    inexact lam only loosens the duality gap, never invalidates it."""
    n_contrasts, m = g_mat.shape
    res = naive - g_mat @ z
    size = np.abs(res)
    sign = np.sign(res)
    p = _norm_value(res, norm)
    slack = 1e-2 * tol * max(1.0, p)
    on_sphere = float(z @ z) >= cap * (1.0 - 1e-9)
    if norm == "l1":
        active = size <= slack / n_contrasts
        active[picked] = True
        n_act = int(active.sum())
        g_act = g_mat[active].T
        # 2 G_A' lam - mu z = G_A'1 - c, lam + nu = 1
        lhs = np.zeros((m + n_act, 2 * n_act + 1))
        lhs[:m, :n_act] = 2.0 * g_act
        lhs[m:, :n_act] = lhs[m:, n_act : 2 * n_act] = np.eye(n_act)
        rhs = np.ones(m + n_act)
        rhs[:m] = g_act.sum(axis=1) - g_mat[~active].T @ sign[~active]
    else:
        active = size >= p - slack
        active[picked] = True
        n_act = int(active.sum())
        # sum_A lam_i sign_i g_i - mu z = 0, sum(lam) = 1
        lhs = np.zeros((m + 1, n_act + 1))
        lhs[:m, :n_act] = g_mat[active].T * sign[active]
        lhs[m, :n_act] = 1.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
    if on_sphere:
        lhs[:m, -1] = -z
    lam = nnls(lhs, rhs)[0][:n_act]
    if norm == "l1":
        y = sign
        y[active] = np.clip(2.0 * lam - 1.0, -1.0, 1.0)
        return y
    y = np.zeros(n_contrasts)
    y[active] = sign[active] * lam
    return y / max(1.0, float(lam.sum()))


def _crossover(g_mat, naive, cap, norm, tol, z_bar):
    """Exact bounds from the active sets that the residuals at the barrier
    iterate z_bar suggest: after sorting them, one primal candidate per
    active-set size (see _affine_sphere_points, anchored at z_bar) and its
    _dual_candidate. L1 activates the smallest residuals, which vanish at
    the optimum; Linf the largest, which equal the optimum, so its rows
    are differences with the largest. Yields (z, y)."""
    r = naive - g_mat @ z_bar
    sign = np.sign(r)
    if norm == "l1":
        order = np.argsort(np.abs(r))
        c = g_mat.T @ sign
        rows, rhs = g_mat[order], naive[order]
    else:
        order = np.argsort(-np.abs(r))
        top, order = order[0], order[1:]
        c = sign[top] * g_mat[top]
        rows = sign[order, None] * g_mat[order] - c
        rhs = sign[order] * naive[order] - sign[top] * naive[top]
    for z, picked in _affine_sphere_points(rows, rhs, c, cap, z_bar):
        picked = order[picked] if norm == "l1" else np.append(top, order[picked])
        yield z, _dual_candidate(g_mat, naive, cap, norm, tol, z, picked)


def _newton_step(hess, grad):
    """Newton direction, solved on the unit-diagonal (Jacobi) scaling of the
    Hessian, whose entries span t^2 to 1 late in the path; None when the
    scaled Hessian is singular at working precision."""
    scale = 1.0 / np.sqrt(hess.diagonal())
    try:
        return scale * np.linalg.solve(hess * np.outer(scale, scale), -grad * scale)
    except np.linalg.LinAlgError:
        return None


def _barrier_solve(g_mat, naive, cap, norm, tol, max_iter):
    """Log-barrier Newton method (Boyd & Vandenberghe 2004, ch. 11) on
    min_{||z|| <= r} ||a - G z||_p, r = sqrt(cap), with a _crossover after
    each centering. Every primal value is taken at a feasible z and every
    dual value a'y - r ||G'y|| at a y in the dual norm's unit ball, so best
    primal minus best dual bounds the suboptimality. Returns (z, gap,
    Newton steps)."""
    n_contrasts, m = g_mat.shape
    radius = math.sqrt(cap)
    barrier = _l1_barrier if norm == "l1" else _linf_barrier
    p0 = _norm_value(naive, norm)
    # z = 0 is feasible, and y = 0 is dual feasible with value 0
    z_best, p_best, d_best = np.zeros(m), p0, 0.0

    def certified(z, y) -> bool:
        nonlocal z_best, p_best, d_best
        p = _norm_value(naive - g_mat @ z, norm)
        if p < p_best:
            z_best, p_best = z, p
        if y is not None:
            # a'y - r ||G'y|| bounds the optimum below for any y in the
            # dual norm's unit ball
            d_best = max(d_best, float(naive @ y) - radius * float(np.linalg.norm(g_mat.T @ y)))
        return p_best - d_best <= tol * max(1.0, p_best)

    def result():
        return z_best, max(p_best - d_best, 0.0), steps

    steps = 0
    # The least-squares point closes the gap when the optimum is zero (a
    # zero naive vector, or an exact fit inside the ball), which the
    # barrier only approaches.
    if certified(_to_ball(np.linalg.lstsq(g_mat, naive, rcond=None)[0], cap), None):
        return result()
    # 2K slab sides and the ball: the central path's gap is n_bar / t
    n_bar = 2 * n_contrasts + 1
    t = n_bar / p0
    x = np.zeros(m) if norm == "l1" else np.append(np.zeros(m), 2.0 * p0)
    while n_bar / t >= 1e-3 * np.finfo(float).eps * max(1.0, p_best):
        state = barrier(g_mat, naive, cap, t, x)
        while True:
            phi, grad, hess, y = state
            if certified(x[:m], y):
                return result()
            dx = _newton_step(hess, grad)
            if dx is None:
                break
            decrement = -float(grad @ dx)
            if decrement <= 2.0 * _CENTERED:
                break
            if steps == max_iter:
                raise ConvergenceError(
                    f"{norm} duality gap {p_best - d_best:.3e} still above "
                    f"tolerance after {max_iter} Newton steps",
                    last_iterate=z_best,
                )
            # stay strictly inside the domain, then backtrack (Armijo)
            alpha = min(1.0, 0.99 * _max_step(g_mat, naive, cap, x, dx))
            while alpha > 1e-10:
                state = barrier(g_mat, naive, cap, t, x + alpha * dx)
                if state[0] <= phi - 0.25 * alpha * decrement:
                    break
                alpha *= 0.5
            else:
                break  # no descent left at working precision
            x = x + alpha * dx
            steps += 1
        for z, y_c in _crossover(g_mat, naive, cap, norm, tol, x[:m]):
            if certified(z, y_c):
                return result()
        t *= _GROWTH
    raise ConvergenceError(
        f"{norm} duality gap {p_best - d_best:.3e} still above tolerance "
        "once the barrier's own gap reached rounding level",
        last_iterate=z_best,
    )


def mcc_minimize(
    bank: ContrastBank,
    norm: str = "l2",
    r2_cap: float = 1.0,
    tol: float | None = None,
    max_iter: int = 50000,
) -> MccResult:
    """Minimize ||naive - sigma_{y|t} deltas gamma||_p over
    gamma' Sigma gamma <= r2_cap.

    L2 is exact: the least-squares point counts as interior when its
    squared whitened norm is at most r2_cap + tol (default 1e-8), n_iter
    counts the secular-equation steps plus one, and duality_gap is None,
    the KKT system being its certificate. L1 and Linf stop once best primal
    minus best dual value is at most tol * max(1, primal) (default tol
    1e-9); the result carries that gap, and n_iter counts Newton steps.
    ConvergenceError, with the best feasible whitened iterate attached, if
    max_iter Newton steps do not close the gap. Every norm is solved
    deterministically. An unknown norm raises InputFormatError (a
    ValueError).
    """
    norm = norm.lower()
    if norm not in NORMS:
        raise InputFormatError(f"norm must be one of {NORMS}")
    if not (0.0 <= r2_cap <= 1.0):
        raise CalibrationError(f"r2_cap = {r2_cap:.6g} outside [0, 1]")
    if tol is None:
        tol = 1e-8 if norm == "l2" else 1e-9

    sigma = bank.sigma_u_given_t
    roots = psd_roots(sigma)
    if roots.rank < bank.m:
        raise DegenerateModelError(
            "sigma_u_given_t is singular; the R2 ball is degenerate and the "
            "whitened problem is ill-posed"
        )
    root_inv = roots.inv_root
    g_mat = bank.sigma_y_given_t * (bank.deltas @ root_inv)

    lam = gap = None
    if r2_cap == 0.0:
        z, n_iter = np.zeros(bank.m), 0
        lam, gap = (0.0, None) if norm == "l2" else (None, 0.0)
    elif norm == "l2":
        z, lam, n_iter = _l2_solve(g_mat, bank.naive, r2_cap, tol)
    else:
        z, gap, n_iter = _barrier_solve(g_mat, bank.naive, r2_cap, norm, tol, max_iter)
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
