"""Risk-ratio sensitivity for binary outcomes under the Gaussian-copula model.

rr_single and rr_contrast give the closed-form risk ratio at one gamma, and
rr_curve along a signed-R2 sweep. The ignorance region and the binary
robustness value are extremum problems over the whitened R2 ball
||z|| <= sqrt(cap), z = Sigma^{1/2} gamma. Risk ratios are not monotone in
the confounding strength, so both run one search for every m: a seeded
restart set evaluated in one batched product, then a projected Newton
polish with the exact Hessian of rr(z) from the best restarts. A polish
stops when its Newton decrement is at most 1e-14 |rr|, which at a point
of the sphere is the KKT condition of the ball. The robustness value
adds a Newton solve of the KKT system of min ||z||^2 s.t. rr(z) = 1 and a
batched bracketed root for each ray crossing. Everything is numpy, with
scipy.special's ndtr.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from ._linalg import _BLOCK_ENTRIES, as_r2, as_vector, check_length
from .bounds import IgnoranceRegion, RobustnessValue
from .copula import CDF_CLAMP, SensitivitySpec
from .errors import DegenerateModelError, DimensionError, InputFormatError
from .factor import ConditionalConfounder, Contrast, TreatmentMatrix
from .outcome import _SQRT_2PI, BinaryOutcome

# Restarts polished by Newton in each direction.
_N_POLISH = 4
# Restart count of the full-ball search in binary_rv, and its ray scan.
_RV_RESTARTS = 32
_RV_SCAN = 64
# Iteration cap of every Newton loop (twice that for the bracketed root),
# and the relative Newton decrement at which a polish has converged, also
# the relative KKT residual at which the crossing polish stops.
_MAXITER = 50
_DECREMENT_RTOL = 1e-14
# Bracket width at which a ray crossing is located.
_XTOL = 1e-15


def _linear_predictor(bin_out: BinaryOutcome, t: np.ndarray, stacklevel: int) -> float:
    from scipy.special import ndtr, ndtri  # imported on use: a slow import

    eta = float(bin_out.probit_intercept + t @ bin_out.probit_coef)
    mu = ndtr(eta)
    if not (CDF_CLAMP < mu < 1 - CDF_CLAMP):
        warnings.warn(
            f"conditional success probability {mu:.3g} clamped away from "
            "{0, 1}; the risk ratio there is numerically degenerate",
            stacklevel=stacklevel,
        )
        eta = float(ndtri(np.clip(mu, CDF_CLAMP, 1 - CDF_CLAMP)))
    return eta


def _endpoint(t, name, cc, bin_out, observed, basis, depth):
    """Probit index eta at t and the shift matrix (T_obs - t) coef' basis, so
    that P(Y=1 | do(t)) = mean Phi(eta + shift @ x) at coordinates x. t, the
    panel and the outcome share cc's k (check_length). depth counts the
    frames from here up to the public function, whose caller the clamp
    warning names."""
    t = as_vector(t, name, length=cc.k)
    check_length("panel row", observed.k, cc.k)
    check_length("outcome slope vector", bin_out.k, cc.k)
    return _linear_predictor(bin_out, t, depth + 3), (observed.data - t) @ (cc.coef.T @ basis)


def rr_single(
    t,
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
) -> float:
    """P(Y=1 | do(T=t)) / P(Y=1) under the Gaussian-copula model."""
    from scipy.special import ndtr  # imported on use: a slow import

    check_length("gamma", spec.m, cc.m)
    eta, shift = _endpoint(t, "t", cc, bin_out, observed, np.eye(cc.m), 1)
    return float(np.mean(ndtr(eta + shift @ spec.gamma))) / bin_out.p_y1


def rr_contrast(
    c: Contrast,
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
) -> float:
    """Risk ratio P(Y=1 | do(t1)) / P(Y=1 | do(t2)); the marginal p_y1
    cancels exactly."""
    check_length("gamma", spec.m, cc.m)
    rr = float(_RrEvaluator(c, cc, bin_out, observed, np.eye(cc.m)).rr(spec.gamma)[0])
    if math.isinf(rr):
        raise ZeroDivisionError("denominator intervention probability is zero")
    return rr


class _RrEvaluator:
    """rr(x) = mean Phi(eta1 + S1 x) / mean Phi(eta2 + S2 x) for a contrast,
    with S_i = (T_obs - t_i) coef' basis. The default basis Sigma^{-1/2}
    makes x the whitened point z = Sigma^{1/2} gamma."""

    def __init__(self, c, cc, bin_out, observed, basis=None):
        basis = cc.roots.inv_root if basis is None else basis
        self.eta1, self.s1 = _endpoint(c.t1, "t1", cc, bin_out, observed, basis, 2)
        self.eta2, self.s2 = _endpoint(c.t2, "t2", cc, bin_out, observed, basis, 2)

    def rr(self, x) -> np.ndarray:
        """Risk ratio at each row of x (one point may be a vector); inf where
        the denominator probability vanishes."""
        from scipy.special import ndtr  # imported on use: a slow import

        x = np.atleast_2d(x)
        out = np.empty(x.shape[0])
        step = max(1, _BLOCK_ENTRIES // self.s1.shape[0])
        for i in range(0, x.shape[0], step):
            xb = x[i:i + step].T
            num1 = ndtr(self.eta1 + self.s1 @ xb).mean(axis=0)
            num2 = ndtr(self.eta2 + self.s2 @ xb).mean(axis=0)
            np.divide(num1, num2, out=out[i:i + step], where=num2 >= 1e-300)
            out[i:i + step][num2 < 1e-300] = math.inf
        return out

    def rr_grad_hess(self, x: np.ndarray):
        """rr = N1 / N2 at one point, its gradient g = (dN1 - rr dN2) / N2
        and its Hessian (H1 - rr H2 - g dN2' - dN2 g') / N2, where
        N_i = mean Phi(a_i), a_i = eta_i + S_i x, dN_i = S_i' phi(a_i) / n
        and H_i = -S_i' diag(a_i phi(a_i)) S_i / n."""
        from scipy.special import ndtr  # imported on use: a slow import

        a1 = self.eta1 + self.s1 @ x
        a2 = self.eta2 + self.s2 @ x
        scale = 1.0 / (_SQRT_2PI * a1.shape[0])
        p1 = scale * np.exp(-0.5 * a1 * a1)
        p2 = scale * np.exp(-0.5 * a2 * a2)
        n1, n2 = ndtr(a1).mean(), ndtr(a2).mean()
        rr = n1 / n2
        d2 = self.s2.T @ p2
        grad = (self.s1.T @ p1 - rr * d2) / n2
        cross = np.outer(grad, d2)
        hess = (rr * (self.s2.T * (a2 * p2)) @ self.s2
                - (self.s1.T * (a1 * p1)) @ self.s1 - cross - cross.T) / n2
        return float(rr), grad, hess


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
    gamma = sign(r2) sqrt(|r2|) Sigma^{-1/2} d, from cc.roots. d must have
    cc's m (check_length)."""
    if signed_r2_grid is None:
        signed_r2_grid = np.linspace(-1.0, 1.0, 201)
    grid = np.asarray(signed_r2_grid, dtype=float)
    if grid.ndim != 1:
        raise DimensionError(f"signed_r2_grid must be 1-d, got shape {grid.shape}")
    direction = as_vector(direction, "direction", length=cc.m)
    ev = _RrEvaluator(c, cc, bin_out, observed)
    mag = np.abs(grid)
    nonzero = np.flatnonzero(mag)
    if nonzero.size:
        # the first error a per-point check would raise: a bad direction or
        # range at the first nonzero point, else the range at the largest
        for i in (nonzero[0], np.argmax(mag)):
            SensitivitySpec._from_roots(mag[i], direction, cc.roots)
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


def _abs_newton(h: np.ndarray, g: np.ndarray, radius: float):
    """Newton step -|H|^{-1} g, with the eigenvalues of H replaced by their
    absolute values floored at 1e-8 of the largest and at |g| / (2 radius),
    so that no step is longer than the ball's diameter; and the decrement
    -g'step."""
    lam, vec = np.linalg.eigh(h)
    lam = np.abs(lam)
    floor = max(1e-8 * lam.max(initial=0.0), np.linalg.norm(g) / (2.0 * radius),
                np.finfo(float).tiny)
    coord = vec.T @ g
    step = -(vec @ (coord / np.maximum(lam, floor)))
    return step, float(-(g @ step))


def _newton_polish(ev: _RrEvaluator, z: np.ndarray, radius: float, sign: float):
    """Projected Newton method for min sign * rr(z) over ||z|| <= radius.

    Inside the ball, or on its sphere when the multiplier mu = -g'z / radius^2
    is not positive, the step is _abs_newton's and the path is projected onto
    the ball. On the sphere with mu > 0 the step is a Newton step on the
    tangent space with the Hessian P (H + mu I) P of rr on the sphere, and
    the path is retracted onto the sphere. Armijo backtracking along the
    path; returns the last point and whether its decrement fell to
    _DECREMENT_RTOL |rr| within _MAXITER iterations. The rule is relative
    because rr is a ratio: its extremes may lie far below or above 1.
    """
    v, g, h = ev.rr_grad_hess(z)
    f, g, h = sign * v, sign * g, sign * h
    for _ in range(_MAXITER):
        nrm = float(np.linalg.norm(z))
        mu = -float(g @ z) / (radius * radius)
        if nrm >= radius * (1.0 - 1e-12) and mu > 0.0:
            # an orthonormal basis of the tangent space at z
            basis = np.linalg.qr(np.column_stack([z, np.eye(z.shape[0])]))[0][:, 1:]
            tangent, decrement = _abs_newton(
                basis.T @ (h + mu * np.eye(z.shape[0])) @ basis, basis.T @ g, radius)
            step = basis @ tangent
        else:
            step, decrement = _abs_newton(h, g, radius)
        if decrement <= _DECREMENT_RTOL * abs(f):
            return z, True
        t = 1.0
        while t > 1e-12:
            trial = z + t * step
            trial_nrm = float(np.linalg.norm(trial))
            if trial_nrm > radius:
                trial = trial * (radius / trial_nrm)
            v, g_t, h_t = ev.rr_grad_hess(trial)
            if sign * v <= f - 1e-4 * t * decrement:
                z, f, g, h = trial, sign * v, sign * g_t, sign * h_t
                break
            t *= 0.5
        else:
            return z, False
    return z, False


def _ball_extremes(ev: _RrEvaluator, points: np.ndarray, radius: float):
    """Min and max of rr over ||z|| <= radius: the restart points in one
    batched call, then _newton_polish from the best _N_POLISH of them each
    way.

    Returns (min value, argmin), (max value, argmax) and whether some
    polish converged in each direction. Each reported value is ev.rr of
    its returned point alone, bit for bit: a batched product may round the
    same point differently.
    """
    points = np.unique(points, axis=0)
    vals = ev.rr(points)
    order = np.argsort(vals)
    found, stable = [], True
    for sign, starts in ((1.0, order[:_N_POLISH]), (-1.0, order[::-1][:_N_POLISH])):
        polished = [_newton_polish(ev, points[i], radius, sign) for i in starts]
        ends = np.array([z for z, _ in polished])
        best = ends[int(np.argmin(sign * ev.rr(ends)))]
        found.append((float(ev.rr(best)[0]), best))
        stable &= any(ok for _, ok in polished)
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
    (for m = 1, on the interval), evaluated in one batch, then a projected
    Newton polish with the exact Hessian from the best four in each
    direction. A polish converges when its Newton decrement is at most
    1e-14 |rr| within 50 iterations. Warns when no polish converges
    in some direction; the region is then the widest found. n_restarts must
    be a nonnegative integer (0 searches from the centre only), else
    InputFormatError. A singular Sigma raises DegenerateModelError.
    """
    as_r2(r2_cap, "r2_cap")
    if (isinstance(n_restarts, bool) or not isinstance(n_restarts, (int, np.integer))
            or n_restarts < 0):
        raise InputFormatError(f"n_restarts must be a nonnegative integer, got {n_restarts!r}")
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
    there is none. One batched scan of _RV_SCAN points per segment finds the
    first bracket; then all brackets shrink together by the Illinois variant
    of regula falsi, with a bisection whenever two steps did not halve a
    bracket, to a width of _XTOL in the segment's parameter. The radius is
    the bracket's far end, where rr has reached 1. sign is that of rr - 1 at
    the centre."""
    s = np.linspace(0.0, 1.0, _RV_SCAN + 1)
    pts = s[:, None] * ends[:, None, :]
    side = sign * (ev.rr(pts.reshape(-1, ends.shape[1])).reshape(len(ends), -1) - 1.0)
    rows = np.flatnonzero((side <= 0.0).any(axis=1))
    j = np.argmax(side[rows] <= 0.0, axis=1) - 1
    lo, hi = s[j], s[j + 1]
    f_lo, f_hi = side[rows, j], side[rows, j + 1]
    kept = np.zeros(len(rows))  # +1 (-1) after a step that kept hi (lo)
    width = np.full((2, len(rows)), math.inf)  # bracket widths two and one steps back
    for _ in range(2 * _MAXITER):
        live = np.flatnonzero((hi - lo > _XTOL) & (f_hi < 0.0))
        if live.size == 0:
            break
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        u = a + (b - a) * (fa / (fa - fb))
        slow = (b - a > 0.5 * width[0, live]) | ~((a < u) & (u < b))
        u[slow] = 0.5 * (a[slow] + b[slow])
        width[:, live] = width[1, live], b - a
        fu = sign * (ev.rr(u[:, None] * ends[rows[live]]) - 1.0)
        up = fu > 0.0
        # Illinois: halve the value at an end kept twice in a row
        f_hi[live[up & (kept[live] > 0)]] *= 0.5
        f_lo[live[~up & (kept[live] < 0)]] *= 0.5
        lo[live[up]], f_lo[live[up]] = u[up], fu[up]
        hi[live[~up]], f_hi[live[~up]] = u[~up], fu[~up]
        kept[live] = np.where(up, 1.0, -1.0)
    radii = np.full(len(ends), math.inf)
    radii[rows] = hi * np.linalg.norm(ends[rows], axis=1)
    return radii


def _crossing_polish(ev: _RrEvaluator, z: np.ndarray) -> np.ndarray:
    """Newton on the KKT system of min ||z||^2 / 2 s.t. rr(z) = 1, from a
    crossing z: [[I + lam H, g], [g', 0]] (dz, dlam) = -(z + lam g, rr - 1),
    with lam first the least-squares multiplier. Stops when the residual is
    at most _DECREMENT_RTOL (||z|| + 1), after _MAXITER steps, or before a
    step that would leave the unit ball or meet a singular system; returns
    the last point."""
    m = z.shape[0]
    v, g, h = ev.rr_grad_hess(z)
    gg = float(g @ g)
    if gg == 0.0:
        return z
    lam = -float(g @ z) / gg
    for _ in range(_MAXITER):
        residual = np.append(z + lam * g, v - 1.0)
        if np.linalg.norm(residual) <= _DECREMENT_RTOL * (np.linalg.norm(z) + 1.0):
            break
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = np.eye(m) + lam * h
        kkt[:m, m] = kkt[m, :m] = g
        try:
            step = np.linalg.solve(kkt, -residual)
        except np.linalg.LinAlgError:
            break
        if not np.linalg.norm(z + step[:m]) <= 1.0:  # also stops on nan
            break
        z, lam = z + step[:m], lam + step[m]
        v, g, h = ev.rr_grad_hess(z)
    return z


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
    the naive value (the Newton search of rr_ignorance_region at cap 1) does
    not reach 1. Otherwise it finds the first crossings of rr = 1 along the
    restart rays and that extremum's ray (one batched scan, then a batched
    bracketed root to 1e-15), polishes the four nearest by Newton on the KKT
    system of min ||z||^2 s.t. rr(z) = 1 until its residual is at most
    1e-14 (||z|| + 1), and crosses again along the polished rays. The value
    is the smallest squared radius of a crossing found along a ray, so it is
    always attained. A singular Sigma raises DegenerateModelError.
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
    rays = []
    for i in np.argsort(radii)[:_N_POLISH]:
        if np.isfinite(radii[i]):
            z = _crossing_polish(ev, ends[i] * (radii[i] / np.linalg.norm(ends[i])))
            nrm = float(np.linalg.norm(z))
            if nrm > 0.0:
                rays.append(z / nrm)
    if rays:
        radii = np.concatenate([radii, _first_crossings(ev, np.array(rays), sign)])
    return RobustnessValue(min(float(radii.min()) ** 2, 1.0), False)
