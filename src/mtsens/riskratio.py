"""Risk-ratio sensitivity for binary outcomes under the Gaussian-copula model.

rr_single and rr_contrast give the closed-form risk ratio at one gamma, and
rr_curve along a signed-R2 sweep. The ignorance region and the binary
robustness value are extremum problems over the whitened R2 ball
||z|| <= sqrt(cap), z = Sigma^{1/2} gamma. Risk ratios are not monotone in
the confounding strength, so both run one search for every m: a seeded
restart set evaluated in one batched product, then SLSQP with the analytic
gradient of rr(z) from the best restarts.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import ndtr, ndtri

from ._linalg import as_vector
from .bounds import IgnoranceRegion, RobustnessValue
from .calibrate import gamma_from_signed_r2
from .copula import CDF_CLAMP, SensitivitySpec
from .errors import CalibrationError, DegenerateModelError, DimensionError
from .factor import ConditionalConfounder, Contrast, TreatmentMatrix
from .outcome import _SQRT_2PI, BinaryOutcome

# Restarts polished by SLSQP in each direction.
_N_POLISH = 4
# Restart count of the full-ball search in binary_rv, and its ray scan.
_RV_RESTARTS = 32
_RV_SCAN = 64
# Largest (row, point) product one batched evaluation holds at once.
_BLOCK = 1 << 20


def _linear_predictor(bin_out: BinaryOutcome, t: np.ndarray) -> float:
    eta = float(bin_out.probit_intercept + t @ bin_out.probit_coef)
    mu = ndtr(eta)
    if not (CDF_CLAMP < mu < 1 - CDF_CLAMP):
        warnings.warn(
            f"conditional success probability {mu:.3g} clamped away from "
            "{0, 1}; the risk ratio there is numerically degenerate",
            stacklevel=3,
        )
        eta = float(ndtri(np.clip(mu, CDF_CLAMP, 1 - CDF_CLAMP)))
    return eta


def _endpoint(t, name, cc, bin_out, observed, basis):
    """Probit index eta at t and the shift matrix (T_obs - t) coef' basis, so
    that P(Y=1 | do(t)) = mean Phi(eta + shift @ x) at coordinates x."""
    t = as_vector(t, name)
    for what, k in ((name, t.shape[0]), ("observed treatments", observed.k),
                    ("probit_coef", bin_out.k)):
        if k != cc.k:
            raise DimensionError(f"{what} has dimension {k}, expected k = {cc.k}")
    return _linear_predictor(bin_out, t), (observed.data - t) @ (cc.coef.T @ basis)


def _confounder_vector(v, what: str, cc: ConditionalConfounder) -> np.ndarray:
    v = as_vector(v, what)
    if v.shape[0] != cc.m:
        raise DimensionError(f"{what} has dimension {v.shape[0]}, expected m = {cc.m}")
    return v


def rr_single(
    t,
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
) -> float:
    """P(Y=1 | do(T=t)) / P(Y=1) under the Gaussian-copula model."""
    gamma = _confounder_vector(spec.gamma, "gamma", cc)
    eta, shift = _endpoint(t, "t", cc, bin_out, observed, np.eye(cc.m))
    return float(np.mean(ndtr(eta + shift @ gamma))) / bin_out.p_y1


def rr_contrast(
    c: Contrast,
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
) -> float:
    """Risk ratio P(Y=1 | do(t1)) / P(Y=1 | do(t2)); the marginal p_y1
    cancels exactly."""
    gamma = _confounder_vector(spec.gamma, "gamma", cc)
    rr = float(_RrEvaluator(c, cc, bin_out, observed, np.eye(cc.m)).rr(gamma)[0])
    if math.isinf(rr):
        raise ZeroDivisionError("denominator intervention probability is zero")
    return rr


class _RrEvaluator:
    """rr(x) = mean Phi(eta1 + S1 x) / mean Phi(eta2 + S2 x) for a contrast,
    with S_i = (T_obs - t_i) coef' basis. The default basis Sigma^{-1/2}
    makes x the whitened point z = Sigma^{1/2} gamma."""

    def __init__(self, c, cc, bin_out, observed, basis=None):
        basis = cc.roots.inv_root if basis is None else basis
        self.eta1, self.s1 = _endpoint(c.t1, "t1", cc, bin_out, observed, basis)
        self.eta2, self.s2 = _endpoint(c.t2, "t2", cc, bin_out, observed, basis)

    def rr(self, x) -> np.ndarray:
        """Risk ratio at each row of x (one point may be a vector); inf where
        the denominator probability vanishes."""
        x = np.atleast_2d(x)
        out = np.empty(x.shape[0])
        step = max(1, _BLOCK // self.s1.shape[0])
        for i in range(0, x.shape[0], step):
            xb = x[i:i + step].T
            num1 = ndtr(self.eta1 + self.s1 @ xb).mean(axis=0)
            num2 = ndtr(self.eta2 + self.s2 @ xb).mean(axis=0)
            np.divide(num1, num2, out=out[i:i + step], where=num2 >= 1e-300)
            out[i:i + step][num2 < 1e-300] = math.inf
        return out

    def rr_and_grad(self, x: np.ndarray):
        """rr at one point and its gradient
        (S1' phi(a1) N2 - N1 S2' phi(a2)) / (n N2^2), a_i = eta_i + S_i x."""
        a1 = self.eta1 + self.s1 @ x
        a2 = self.eta2 + self.s2 @ x
        n1, n2 = ndtr(a1).mean(), ndtr(a2).mean()
        d1 = self.s1.T @ np.exp(-0.5 * a1 * a1)
        d2 = self.s2.T @ np.exp(-0.5 * a2 * a2)
        grad = (d1 * n2 - n1 * d2) / (_SQRT_2PI * a1.shape[0] * n2 * n2)
        return float(n1 / n2), grad


def _require_full_rank(cc: ConditionalConfounder) -> None:
    """The searches run over the ball gamma' Sigma gamma <= cap, which is
    unbounded along the null space of a singular Sigma."""
    if not cc.full_rank():
        raise DegenerateModelError(
            "sigma_u_given_t is singular; gamma in its null space has zero "
            "confounder R2, so the risk-ratio search has no bounded R2 ball"
        )


def rr_curve(
    c: Contrast,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
    direction,
    signed_r2_grid=None,
) -> list[tuple[float, float]]:
    """Risk ratio along a signed-R2 sweep in a fixed confounder direction:
    gamma = sign(r2) sqrt(|r2|) Sigma^{-1/2} d."""
    if signed_r2_grid is None:
        signed_r2_grid = np.linspace(-1.0, 1.0, 201)
    grid = np.asarray(signed_r2_grid, dtype=float)
    if grid.ndim != 1:
        raise DimensionError(f"signed_r2_grid must be 1-d, got shape {grid.shape}")
    direction = _confounder_vector(direction, "direction", cc)
    ev = _RrEvaluator(c, cc, bin_out, observed)
    mag = np.abs(grid)
    nonzero = np.flatnonzero(mag)
    if nonzero.size:
        # the first error a per-point check would raise: a bad direction or
        # range at the first nonzero point, else the range at the largest
        for i in (nonzero[0], np.argmax(mag)):
            gamma_from_signed_r2(grid[i], direction, cc.sigma_u_given_t)
    sign = np.where(grid >= 0, 1.0, -1.0)[:, None]
    z = np.sqrt(np.minimum(mag, 1.0))[:, None] * (sign * direction)
    return list(zip(grid.tolist(), ev.rr(z).tolist()))


def _restarts(m: int, radius: float, n_restarts: int, seed: int) -> np.ndarray:
    """The seeded restart set: the centre, n_restarts uniform points of the
    ball ||z|| <= radius, then their projections onto its sphere."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n_restarts, m))
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
    r = radius * rng.uniform(size=(n_restarts, 1)) ** (1.0 / m)
    return np.vstack([np.zeros((1, m)), r * d, radius * d])


def _ball(radius: float) -> dict:
    return {"type": "ineq", "fun": lambda z: radius * radius - z @ z,
            "jac": lambda z: -2.0 * z}


def _into_ball(z: np.ndarray, radius: float) -> np.ndarray:
    nrm = float(np.linalg.norm(z))
    return z * (radius / nrm) if nrm > radius else z


def _ball_extremes(ev: _RrEvaluator, points: np.ndarray, radius: float):
    """Min and max of rr over ||z|| <= radius: the restart points in one
    batched call, then SLSQP from the best _N_POLISH of them each way.

    Returns (min value, argmin), (max value, argmax) and whether some
    direction had no successful polish. Every reported value is rr at a
    point of the ball.
    """
    points = np.unique(points, axis=0)
    vals = ev.rr(points)
    order = np.argsort(vals)
    found, stable = [], True
    for sign, starts in ((1.0, order[:_N_POLISH]), (-1.0, order[::-1][:_N_POLISH])):

        def objective(z, sign=sign):
            v, g = ev.rr_and_grad(z)
            return sign * v, sign * g

        best_v, best_z, ok = vals[starts[0]], points[starts[0]], False
        for i in starts:
            res = minimize(objective, points[i], jac=True, method="SLSQP",
                           constraints=[_ball(radius)],
                           options={"ftol": 1e-12, "maxiter": 200})
            ok |= bool(res.success)
            z = _into_ball(res.x, radius)
            v = float(ev.rr(z)[0])
            if sign * v < sign * best_v:
                best_v, best_z = v, z
        found.append((float(best_v), best_z))
        stable &= ok
    return found[0], found[1], stable


def rr_ignorance_region(
    c: Contrast,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
    r2_cap: float,
    n_restarts: int = 200,
    seed: int = 0,
) -> IgnoranceRegion:
    """Range of risk ratios over all gamma with gamma' Sigma gamma <= r2_cap.

    One search for every m on the whitened ball ||z|| <= sqrt(r2_cap): the
    centre plus n_restarts seeded points inside the ball and on its sphere
    (for m = 1, on the interval), evaluated in one batch, then SLSQP with the
    analytic gradient from the best four in each direction. Warns when no
    polish converges in some direction; the region is then the widest found.
    A singular Sigma raises DegenerateModelError.
    """
    if not (0.0 <= r2_cap <= 1.0):
        raise CalibrationError(f"r2_cap = {r2_cap:.6g} outside [0, 1]")
    _require_full_rank(cc)
    ev = _RrEvaluator(c, cc, bin_out, observed)
    naive = float(ev.rr(np.zeros(cc.m))[0])
    if r2_cap == 0.0:
        return IgnoranceRegion(naive, naive, naive, 0.0, True)
    radius = math.sqrt(r2_cap)
    (lower, _), (upper, _), stable = _ball_extremes(
        ev, _restarts(cc.m, radius, n_restarts, seed), radius
    )
    if not stable:
        warnings.warn(
            "risk-ratio extremum search did not stabilize; reporting the "
            "widest region found",
            stacklevel=2,
        )
    return IgnoranceRegion(naive, min(lower, naive), max(upper, naive), float(r2_cap), True)


def _first_crossings(ev: _RrEvaluator, ends: np.ndarray, sign: float) -> np.ndarray:
    """Norm of the first point with rr = 1 on each segment [0, end], inf where
    there is none: one batched scan of _RV_SCAN points per segment, then
    brentq in the first bracket. sign is that of rr - 1 at the centre."""
    s = np.linspace(0.0, 1.0, _RV_SCAN + 1)
    pts = s[1:, None] * ends[:, None, :]
    side = sign * (ev.rr(pts.reshape(-1, ends.shape[1])).reshape(len(ends), -1) - 1.0)
    radii = np.full(len(ends), math.inf)
    for i in np.flatnonzero((side <= 0.0).any(axis=1)):
        j = int(np.argmax(side[i] <= 0.0))
        u = brentq(lambda u, e=ends[i]: ev.rr(u * e)[0] - 1.0, s[j], s[j + 1], xtol=1e-15)
        radii[i] = u * np.linalg.norm(ends[i])
    return radii


def binary_rv(
    c: Contrast,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
    seed: int = 0,
) -> RobustnessValue:
    """Smallest confounder R2 at which some admissible gamma drives the risk
    ratio to 1, i.e. min ||z||^2 subject to rr(z) = 1 and ||z|| <= 1.

    Value 1 with robust=True when the full-ball extremum on the far side of
    the naive value does not reach 1. Otherwise SLSQP starts from the first
    crossings of rr = 1 along the restart rays and that extremum's ray (one
    batched scan plus brentq), and the value is the smallest squared radius
    of a crossing found along a ray, so it is always attained. A singular
    Sigma raises DegenerateModelError.
    """
    ev = _RrEvaluator(c, cc, bin_out, observed)
    naive = float(ev.rr(np.zeros(cc.m))[0])
    if abs(naive - 1.0) < 1e-14:
        return RobustnessValue(0.0, False)
    _require_full_rank(cc)
    sign = 1.0 if naive > 1.0 else -1.0
    points = _restarts(cc.m, 1.0, _RV_RESTARTS, seed)
    lo, hi, _ = _ball_extremes(ev, points, 1.0)
    v_ext, z_ext = lo if sign > 0 else hi
    if sign * (v_ext - 1.0) > 0.0:
        return RobustnessValue(1.0, True)
    ends = np.unique(np.vstack([z_ext, points[-_RV_RESTARTS:]]), axis=0)
    radii = _first_crossings(ev, ends, sign)
    seeds = [i for i in np.argsort(radii)[:_N_POLISH] if np.isfinite(radii[i])]
    crossing = {"type": "eq", "fun": lambda z: ev.rr(z)[0] - 1.0,
                "jac": lambda z: ev.rr_and_grad(z)[1]}
    rays = []
    for i in seeds:
        z0 = ends[i] * (radii[i] / np.linalg.norm(ends[i]))
        res = minimize(lambda z: (z @ z, 2.0 * z), z0, jac=True, method="SLSQP",
                       constraints=[crossing, _ball(1.0)],
                       options={"ftol": 1e-14, "maxiter": 200})
        nrm = float(np.linalg.norm(res.x))
        if nrm > 0.0:
            rays.append(res.x / nrm)
    if rays:
        radii = np.concatenate([radii, _first_crossings(ev, np.array(rays), sign)])
    return RobustnessValue(min(float(radii.min()) ** 2, 1.0), False)
