"""Risk-ratio sensitivity for binary outcomes: closed-form single-point and
contrast risk ratios under the Gaussian-copula model, signed-R2 curves,
ignorance regions by numeric search, and the binary robustness value.

Risk ratios are not monotone in the confounding strength, so regions come
from extremum searches over the whole gamma ellipsoid, never from endpoint
evaluation.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

from ._linalg import as_vector
from .bounds import IgnoranceRegion, RobustnessValue
from .calibrate import gamma_from_signed_r2
from .copula import CDF_CLAMP, SensitivitySpec
from .errors import CalibrationError, DegenerateModelError, DimensionError
from .factor import ConditionalConfounder, Contrast, TreatmentMatrix
from .outcome import BinaryOutcome

RR_TOL = 1e-6
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _linear_predictor(bin_out: BinaryOutcome, t: np.ndarray) -> float:
    eta = float(bin_out.probit_intercept + t @ bin_out.probit_coef)
    mu = norm.cdf(eta)
    if not (CDF_CLAMP < mu < 1 - CDF_CLAMP):
        warnings.warn(
            f"conditional success probability {mu:.3g} clamped away from "
            "{0, 1}; the risk ratio there is numerically degenerate",
            stacklevel=3,
        )
        eta = float(norm.ppf(np.clip(mu, CDF_CLAMP, 1 - CDF_CLAMP)))
    return eta


def _numerator(
    t,
    gamma: np.ndarray,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
) -> float:
    """Mean over observed rows of Phi(Phi^{-1}(mu_{y|t}) + gamma' shift)."""
    t = as_vector(t, "t")
    if t.shape[0] != cc.k:
        raise DimensionError(f"t has length {t.shape[0]}, expected {cc.k}")
    eta = _linear_predictor(bin_out, t)
    shifts = (observed.data - t) @ (cc.coef.T @ gamma)
    return float(np.mean(norm.cdf(eta + shifts)))


def rr_single(
    t,
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
) -> float:
    """P(Y=1 | do(T=t)) / P(Y=1) under the Gaussian-copula model."""
    return _numerator(t, spec.gamma, cc, bin_out, observed) / bin_out.p_y1


def rr_contrast(
    c: Contrast,
    spec: SensitivitySpec,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
) -> float:
    """Risk ratio P(Y=1 | do(t1)) / P(Y=1 | do(t2)); the marginal p_y1
    cancels exactly."""
    num1 = _numerator(c.t1, spec.gamma, cc, bin_out, observed)
    num2 = _numerator(c.t2, spec.gamma, cc, bin_out, observed)
    if num2 < 1e-300:
        raise ZeroDivisionError("denominator intervention probability is zero")
    return num1 / num2


class _RrEvaluator:
    """Precomputed pieces so rr(gamma) costs one matrix-vector per endpoint."""

    def __init__(self, c, cc, bin_out, observed):
        self.eta1 = _linear_predictor(bin_out, as_vector(c.t1, "t1"))
        self.eta2 = _linear_predictor(bin_out, as_vector(c.t2, "t2"))
        self.s1 = (observed.data - c.t1) @ cc.coef.T
        self.s2 = (observed.data - c.t2) @ cc.coef.T

    def rr(self, gamma: np.ndarray) -> float:
        num1 = float(np.mean(ndtr(self.eta1 + self.s1 @ gamma)))
        num2 = float(np.mean(ndtr(self.eta2 + self.s2 @ gamma)))
        if num2 < 1e-300:
            return math.inf
        return num1 / num2


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
    ev = _RrEvaluator(c, cc, bin_out, observed)
    sigma = cc.sigma_u_given_t
    out = []
    for s in np.asarray(signed_r2_grid, dtype=float):
        spec = gamma_from_signed_r2(float(s), direction, sigma)
        out.append((float(s), ev.rr(spec.gamma)))
    return out


def _golden_extremum(f, a: float, b: float, minimize: bool, xtol: float = 1e-12):
    """Golden-section search on [a, b]; returns (x, f(x)) at the extremum."""
    sign = 1.0 if minimize else -1.0
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1 = sign * f(x1)
    f2 = sign * f(x2)
    while b - a > xtol * (1.0 + abs(a) + abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = sign * f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = sign * f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def _extremes_1d(rr_of_gamma, lo: float, hi: float, n_grid: int = 512):
    """Global min and max of a smooth function on [lo, hi]: coarse grid to
    localize, golden-section to refine every bracketed extremum."""
    grid = np.linspace(lo, hi, n_grid)
    vals = np.array([rr_of_gamma(g) for g in grid])
    best_min = (float(grid[np.argmin(vals)]), float(vals.min()))
    best_max = (float(grid[np.argmax(vals)]), float(vals.max()))
    h = grid[1] - grid[0]
    for minimize in (True, False):
        vcmp = vals if minimize else -vals
        interior = np.where(
            (vcmp[1:-1] <= vcmp[:-2]) & (vcmp[1:-1] <= vcmp[2:])
        )[0] + 1
        candidates = set(int(i) for i in interior) | {0, n_grid - 1}
        for i in candidates:
            a = max(lo, grid[i] - h)
            b = min(hi, grid[i] + h)
            x, fx = _golden_extremum(rr_of_gamma, a, b, minimize)
            if minimize and fx < best_min[1]:
                best_min = (x, fx)
            if not minimize and fx > best_max[1]:
                best_max = (x, fx)
    return best_min, best_max


def _coordinate_refine(rr, z: np.ndarray, radius: float, minimize: bool,
                       sweeps: int = 25, tol: float = RR_TOL):
    """Cyclic coordinate search on the whitened ball ||z|| <= radius."""
    z = z.copy()
    best = rr(z)
    sign = 1.0 if minimize else -1.0
    converged = False
    for _ in range(sweeps):
        improved = 0.0
        for j in range(z.shape[0]):
            rest = float(z @ z - z[j] ** 2)
            half = math.sqrt(max(radius**2 - rest, 0.0))
            if half == 0.0:
                continue

            def f_j(v, j=j):
                zz = z.copy()
                zz[j] = v
                return rr(zz)

            x, fx = _golden_extremum(f_j, -half, half, minimize, xtol=1e-10)
            if sign * fx < sign * best:
                improved += abs(fx - best)
                best = fx
                z[j] = x
        if improved < tol:
            converged = True
            break
    return z, best, converged


def _extremes_ball(
    rr_z,
    m: int,
    radius: float,
    n_restarts: int,
    seed: int,
    warm_starts=(),
):
    """Min and max of rr over the whitened ball: random restarts plus
    coordinate refinement of the best candidates."""
    rng = np.random.default_rng(seed)
    points = [np.zeros(m)]
    points.extend(np.asarray(w, dtype=float) for w in warm_starts)
    for _ in range(n_restarts):
        d = rng.standard_normal(m)
        d /= max(np.linalg.norm(d), 1e-300)
        r = radius * rng.uniform() ** (1.0 / m)
        points.append(r * d)
        points.append(radius * d)
    vals = np.array([rr_z(p) for p in points])
    order_min = np.argsort(vals)[:4]
    order_max = np.argsort(vals)[-4:]
    best_min, zmin, ok_min = math.inf, points[0], True
    best_max, zmax, ok_max = -math.inf, points[0], True
    for i in order_min:
        z, v, conv = _coordinate_refine(rr_z, points[int(i)], radius, True)
        if v < best_min:
            best_min, zmin, ok_min = v, z, conv
    for i in order_max:
        z, v, conv = _coordinate_refine(rr_z, points[int(i)], radius, False)
        if v > best_max:
            best_max, zmax, ok_max = v, z, conv
    return (best_min, zmin, ok_min), (best_max, zmax, ok_max)


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

    Scalar confounders get a grid-plus-golden-section search over the gamma
    interval; higher dimensions get random restarts with coordinate
    refinement on the whitened ball. A singular Sigma raises
    DegenerateModelError.
    """
    if not (0.0 <= r2_cap <= 1.0):
        raise CalibrationError(f"r2_cap = {r2_cap:.6g} outside [0, 1]")
    _require_full_rank(cc)
    ev = _RrEvaluator(c, cc, bin_out, observed)
    naive = ev.rr(np.zeros(cc.m))
    if r2_cap == 0.0:
        return IgnoranceRegion(naive, naive, naive, 0.0, True)
    if cc.m == 1:
        sig = float(cc.sigma_u_given_t[0, 0])
        half = math.sqrt(r2_cap / sig)
        (gmin, vmin), (gmax, vmax) = _extremes_1d(
            lambda g: ev.rr(np.array([g])), -half, half
        )
        lower, upper = vmin, vmax
    else:
        root_inv = cc.roots.inv_root

        def rr_z(z):
            return ev.rr(root_inv @ z)

        (lower, _, ok_min), (upper, _, ok_max) = _extremes_ball(
            rr_z, cc.m, math.sqrt(r2_cap), n_restarts, seed
        )
        if not (ok_min and ok_max):
            warnings.warn(
                "risk-ratio extremum search did not stabilize; reporting the "
                "widest region found",
                stacklevel=2,
            )
    lower = min(lower, naive)
    upper = max(upper, naive)
    return IgnoranceRegion(naive, lower, upper, float(r2_cap), True)


def binary_rv(
    c: Contrast,
    cc: ConditionalConfounder,
    bin_out: BinaryOutcome,
    observed: TreatmentMatrix,
    seed: int = 0,
) -> RobustnessValue:
    """Smallest confounder R2 at which some admissible gamma drives the risk
    ratio to 1; value 1 with robust=True when even R2 = 1 cannot. A
    singular Sigma raises DegenerateModelError."""
    ev = _RrEvaluator(c, cc, bin_out, observed)
    naive = ev.rr(np.zeros(cc.m))
    if abs(naive - 1.0) < 1e-14:
        return RobustnessValue(0.0, False)
    _require_full_rank(cc)
    if cc.m == 1:
        return _binary_rv_1d(ev, cc, naive)
    return _binary_rv_ball(ev, cc, naive, seed)


def _binary_rv_1d(ev: _RrEvaluator, cc: ConditionalConfounder, naive: float) -> RobustnessValue:
    """Roots of rr(gamma) = 1 over the full gamma interval; the smallest
    gamma^2 Sigma among them is the robustness value."""
    sig = float(cc.sigma_u_given_t[0, 0])
    half = math.sqrt(1.0 / sig)

    def f(g: float) -> float:
        return ev.rr(np.array([g])) - 1.0

    grid = np.linspace(-half, half, 2049)
    vals = np.array([f(g) for g in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0:
            roots.append(float(brentq(f, grid[i], grid[i + 1], xtol=1e-13)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        return RobustnessValue(1.0, True)
    g0 = min(roots, key=abs)
    return RobustnessValue(min(g0 * g0 * sig, 1.0), False)


def _binary_rv_ball(
    ev: _RrEvaluator, cc: ConditionalConfounder, naive: float, seed: int
) -> RobustnessValue:
    """Bisection on the cap against the nested envelope of the region."""
    root_inv = cc.roots.inv_root

    def rr_z(z):
        return ev.rr(root_inv @ z)

    minimize = naive > 1.0
    warm: list[np.ndarray] = []

    def envelope(cap: float) -> float:
        scaled = [w * (math.sqrt(cap) / max(np.linalg.norm(w), 1e-300)) for w in warm]
        (vmin, zmin, _), (vmax, zmax, _) = _extremes_ball(
            rr_z, cc.m, math.sqrt(cap), 80, seed, warm_starts=scaled
        )
        if minimize:
            warm.append(zmin)
            return vmin
        warm.append(zmax)
        return vmax

    full = envelope(1.0)
    if (minimize and full > 1.0) or (not minimize and full < 1.0):
        return RobustnessValue(1.0, True)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        v = envelope(mid)
        crossed = v <= 1.0 if minimize else v >= 1.0
        if crossed:
            hi = mid
        else:
            lo = mid
    return RobustnessValue(hi, False)
