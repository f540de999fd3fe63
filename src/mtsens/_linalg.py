"""Small linear-algebra helpers used across modules.

Every square root, inverse root and rank of a symmetric PSD matrix comes
from psd_roots: one eigendecomposition and one rank rule (eigenvalues above
RANK_RTOL * lambda_max), so all callers agree on when a matrix is singular
and, through PsdRoots.leaves_row_space, on when a vector escapes its row
space. Every least-squares fit regresses on a design with an intercept,
[1, t], and takes one path, lstsq: the centered Gram t_c't_c / n of
_moments (the matrix the factor model factors too, which a TreatmentMatrix
caches and hands over as moments), certified by certified_gram, by dpocon
estimates on the equilibrated Gram (rcond > sqrt(eps) for accuracy, and
the condition rule of _full_rank on its square root, since kappa(x'x) =
kappa(x)^2, for the verdict), plus one refinement step; without the
certificate, one pivoted QR of [1, t] with one rank rule (|R_ii| >
max|R_ii| * max(n, p) * eps) decides. fit_linear, fit_proxy (through
full_rank_lstsq, which names the dependent columns), benchmark_table and
partial_r2_treatment call lstsq; fit_empirical calls its certified step,
gram_lstsq, else an SVD for the minimum-norm solution. The probit Newton
step solves its Hessian by certified_cholesky_solve, under the same
_full_rank rule.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InputFormatError, SingularFitError

# Relative cutoff that defines numerical rank.
RANK_RTOL = 1e-10
# Relative size of the out-of-row-space component that counts as leaving it.
OUT_OF_ROW_SPACE_RTOL = 1e-8
# Entries of the largest per-block array of the batched evaluations: n_sim
# per row on the Gaussian Monte Carlo path, n_draws x m_draws per row in the
# importance sampler, observed rows per point in the risk-ratio batches. A
# block holds at least one row or point.
_BLOCK_ENTRIES = 2**15


def as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if not np.isfinite(v).all():
        raise InputFormatError(f"{name} contains non-finite entries")
    return v


def symmetrize(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    return 0.5 * (a + a.T)


def eigh_desc(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    lam, vec = np.linalg.eigh(symmetrize(a))
    return lam[::-1], vec[:, ::-1]


class PsdRoots(NamedTuple):
    """Square roots of a symmetric PSD matrix from one eigendecomposition.

    rank counts the eigenvalues above RANK_RTOL * lambda_max; their
    eigenvectors span the row space.  root is the PSD square root (negative
    rounding-level eigenvalues clamped to 0), inv_root the pseudo-inverse
    square root (zero on the complement of the row space), and null an
    orthonormal basis of that complement, shaped m x (m - rank).
    """

    eigvals: np.ndarray
    rank: int
    root: np.ndarray
    inv_root: np.ndarray
    null: np.ndarray

    def leaves_row_space(self, v) -> bool:
        """Whether the vector v has a component outside the row space,
        relative to the size of v. Never, when the matrix has full rank."""
        if self.null.shape[1] == 0:
            return False
        v = np.asarray(v, dtype=float)
        outside = np.linalg.norm(self.null.T @ v)
        return bool(outside > OUT_OF_ROW_SPACE_RTOL * max(np.linalg.norm(v), 1e-300))


def psd_roots(a: np.ndarray) -> PsdRoots:
    lam, vec = np.linalg.eigh(symmetrize(a))
    lmax = float(np.max(np.abs(lam))) if lam.size else 0.0
    keep = lam > RANK_RTOL * lmax
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / np.sqrt(lam[keep])
    return PsdRoots(
        eigvals=lam,
        rank=int(np.count_nonzero(keep)),
        root=(vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T,
        inv_root=(vec * inv) @ vec.T,
        null=vec[:, ~keep],
    )


def orthonormal_null_basis(b: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the null space of b^T (directions losing no
    treatment variation to the factors), as columns of a k x (k-rank) matrix.

    Column signs follow the convention that the largest-magnitude entry is
    positive, ties broken by lowest index.
    """
    b = np.asarray(b, dtype=float)
    u, s, _ = np.linalg.svd(b, full_matrices=True)
    smax = s.max() if s.size else 0.0
    rank = int(np.sum(s > rtol * max(smax, 1.0) * (smax > 0)))
    basis = u[:, rank:]
    return fix_column_signs(basis)


def fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive.

    Ties broken by the lowest row index (argmax returns the first maximum).
    """
    v = np.array(v, dtype=float, copy=True)
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


class LstsqFit(NamedTuple):
    """Least-squares fit of y on the columns of x = [1, t] with
    r'r = x[:, piv]'x[:, piv] and r upper triangular. The columns piv[:rank]
    are a basis and beta is the basic solution, zero on the dependent columns
    piv[rank:]. r is the Cholesky factor of x'x that gram_lstsq builds from
    the certified centered Gram (piv the identity, rank = p) or else the R of
    a pivoted QR; the two agree up to row signs where both exist."""

    beta: np.ndarray
    r: np.ndarray
    piv: np.ndarray
    rank: int


def _full_rank(rcond: float, n: int, p: int) -> bool:
    """Whether a reciprocal 1-norm condition estimate of a p-column
    factorization of n rows certifies full rank: rcond > 20 p max(n, p) eps.
    For a QR, min|R_ii| / max|R_ii| >= 1/kappa_2(x) >= 1/(p kappa_1(R)), and
    rcond = 1/(||R||_1 est) with est <= ||R^-1||_1, in practice by a small
    factor (Higham 1988): the 20 allows 10x for it and 2x for rounding."""
    return rcond > 20 * p * max(n, p) * np.finfo(float).eps


def certified_cholesky_solve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray | None:
    """The solution of a x = b for a symmetric positive definite p x p
    matrix a = X'WX formed from n rows, by a Cholesky factorization that a
    dpocon estimate certifies as full rank under the rule of _full_rank;
    None when dpotrf fails or the certificate does."""
    from scipy.linalg import lapack  # imported on use: a slow import

    c, info = lapack.dpotrf(a)
    if info != 0:
        return None
    rcond, info = lapack.dpocon(c, np.linalg.norm(a, 1))
    if info != 0 or not _full_rank(rcond, n, a.shape[0]):
        return None
    return lapack.dpotrs(c, b)[0]


def certified_gram(g: np.ndarray, n: int) -> np.ndarray | None:
    """The upper Cholesky factor c of the covariance g = x_c'x_c / n of the
    centered columns x_c of an n-row design, c'c = g, when a dpocon
    estimate rcond of the equilibrated G_s = D^-1 g D^-1, D = diag(g)^1/2,
    whose factor is c D^-1, certifies the design x = [1, x_c]; None
    otherwise, and before equilibrating when D has a zero (a constant
    column). The Gram of x over n, blockdiag(1, g), equilibrates to
    blockdiag(1, G_s), whose rcond is that of G_s, and a positive multiple
    of g certifies as g does.
    - Accuracy: rcond > sqrt(eps). Forming g and factoring it err by eps
      relative to the columns of x, so the error of a normal-equations
      solve per unit-norm column follows kappa(G_s), whatever the column
      scales (van der Sluis 1969). The first solve errs by about
      kappa(G_s) eps relative, and a refinement step multiplies that error
      by about kappa(G_s) eps, so kappa(G_s) < 1/sqrt(eps) leaves it at
      rounding level, as accurate as a QR solve.
    - Verdict: sqrt(rcond) d_min / d_max, over the diagonal d of D and the
      intercept's d = 1, passes the rule of _full_rank for the p columns
      of x. kappa_2(x'x) <= kappa_2(G_s) kappa_2(D)^2 and, G_s being
      symmetric, kappa_2(G_s) <= kappa_1(G_s), so with the rule's 10x
      allowance for the estimate kappa_2(x)^2 = kappa_2(x'x) <
      10 / (20 p max(n, p) eps)^2 and kappa_2(x) < 1/(6 p max(n, p) eps),
      inside the 1/(2 max(n, p) eps) that the same rule on a QR's R
      implies: the pivoted QR's rank rule also finds full rank, for every
      n and p. Without the factor d_min / d_max it would not: a column
      1e-14 times the others passes the scale-free accuracy rule, and the
      pivoted rule names it as dependent."""
    from scipy.linalg import lapack  # imported on use: a slow import

    d = np.sqrt(np.diag(g))
    if not d.all():
        return None
    c, info = lapack.dpotrf(g)
    if info != 0:
        return None
    rcond, info = lapack.dpocon(c / d, np.linalg.norm(g / np.outer(d, d), 1))
    d = np.append(d, 1.0)
    verdict = _full_rank(np.sqrt(rcond) * d.min() / d.max(), n, d.size)
    if info != 0 or rcond <= np.sqrt(np.finfo(float).eps) or not verdict:
        return None
    return c


def _moments(t: np.ndarray):
    """Column means and the covariance (divisor n) of the rows of t. n times
    the covariance is the centered Gram matrix t_c't_c, the one matrix
    behind the factor model, select_dim and every least-squares fit."""
    means = t.mean(axis=0)
    centered = t - means
    return means, (centered.T @ centered) / t.shape[0]


def gram_lstsq(t: np.ndarray, y: np.ndarray, moments=None) -> LstsqFit | None:
    """The least-squares fit of y on [1, t] from the column means of t and
    cov = t_c't_c / n, t_c = t - means (moments, a TreatmentMatrix's cache),
    when certified_gram certifies cov for the design [1, t_c]; None
    otherwise (n <= k, or no columns, included). The slopes b solve
    cov b = t_c'(y - mean(y)) / n by dpotrs and take one refinement step,
    b += cov^-1 t_c'(y - mean(y) - t_c b) / n, two O(nk) products (Bjorck
    1996, sec. 2.9), and the intercept is mean(y) - means'b. The products
    t_c'v are formed as t'v - means sum(v), so t_c is never stored. With
    c'c = cov, r = sqrt(n) [[1, means'], [0, c]], so r'r = [1, t]'[1, t]."""
    from scipy.linalg import lapack  # imported on use: a slow import

    n, k = t.shape
    if not n > k > 0:
        return None
    means, cov = _moments(t) if moments is None else moments
    c = certified_gram(cov, n)
    if c is None:
        return None
    ybar = float(y.mean())
    resid = y - ybar
    b = lapack.dpotrs(c, (t.T @ resid - means * resid.sum()) / n)[0]
    resid -= t @ b - means @ b
    b += lapack.dpotrs(c, (t.T @ resid - means * resid.sum()) / n)[0]
    r = np.zeros((k + 1, k + 1))
    r[0, 0] = 1.0
    r[0, 1:] = means
    r[1:, 1:] = c
    r *= math.sqrt(n)
    return LstsqFit(np.concatenate([[ybar - float(means @ b)], b]), r, np.arange(k + 1), k + 1)


def lstsq(t: np.ndarray, y: np.ndarray, moments=None) -> LstsqFit:
    """The least-squares fit of y on x = [1, t] at any rank: the gram_lstsq
    fit, else a pivoted QR, x[:, piv] = QR, with rank the number of
    |R_ii| > max|R_ii| max(n, p) eps."""
    fit = gram_lstsq(t, y, moments)
    if fit is not None:
        return fit
    from scipy.linalg import qr_multiply, solve_triangular  # imported on use: a slow import

    x = np.column_stack([np.ones(t.shape[0]), t])
    n, p = x.shape
    qty, r, piv = qr_multiply(x, y, mode="right", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > diag.max() * max(n, p) * np.finfo(float).eps))
    beta = np.zeros(p)
    beta[piv[:rank]] = solve_triangular(r[:rank, :rank], qty[:rank])
    return LstsqFit(beta, r, piv, rank)


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """The x >= 0 that minimizes ||a x - b|| for an m x n matrix a, and that
    residual norm, by the active-set method of Lawson & Hanson (1974,
    ch. 23). Each iteration moves the free column j of largest
    w_j = a_j'(b - a x) > 0 into the passive set P and solves least squares
    on the columns of P by np.linalg.lstsq. As in their NNLS, j is rejected,
    until the next column enters, when lstsq's rank rule finds it dependent
    on P or gives it a coefficient <= 0, so P keeps full column rank. While
    the solution leaves the orthant, x steps back along the way to it, to
    the first coordinate that reaches zero, and P drops that coordinate.
    Iterations, step-backs included, are capped at 3n as in
    scipy.optimize.nnls; at the cap the current iterate, nonnegative but
    not optimal, is returned instead of an error."""
    m, n = a.shape
    x = np.zeros(n)
    cols: list[int] = []  # P, in the order the columns entered
    resid = b
    solves = 0
    while len(cols) < m:
        w = a.T @ resid
        w[cols] = 0.0
        while True:
            j = int(w.argmax())
            if w[j] <= 0.0:
                return x, math.sqrt(resid @ resid)
            sub = a[:, cols + [j]]
            s, _, rank, _ = np.linalg.lstsq(sub, b, rcond=None)
            if rank > len(cols) and s[-1] > 0.0:
                cols.append(j)
                break
            w[j] = 0.0
        while True:  # step back until the solution on P is positive
            solves += 1
            if solves > 3 * n:
                resid = b - a @ x
                return x, math.sqrt(resid @ resid)
            out = s <= 0.0
            if not out.any():
                break
            xp = x[cols]
            ratio = xp[out] / (xp[out] - s[out])
            first = int(ratio.argmin())
            xp += ratio[first] * (s - xp)
            xp[np.flatnonzero(out)[first]] = 0.0
            x[cols] = np.maximum(xp, 0.0)
            cols = [c for c, v in zip(cols, xp.tolist()) if v > 0.0]
            sub = a[:, cols]
            s = np.linalg.lstsq(sub, b, rcond=None)[0]
        x[cols] = s
        resid = b - sub @ s
    return x, math.sqrt(resid @ resid)


def full_rank_lstsq(t: np.ndarray, y: np.ndarray, names: list[str],
                    moments=None) -> np.ndarray:
    """The coefficients [intercept, slopes] of y on [1, t] by lstsq.
    SingularFitError names the dependent columns of a rank-deficient
    [1, t]: "intercept", or the name of a column of t."""
    fit = lstsq(t, y, moments)
    if fit.rank <= t.shape[1]:
        names = ["intercept"] + list(names)
        labels = [names[i] for i in sorted(fit.piv[fit.rank:])]
        raise SingularFitError(
            f"design matrix is rank deficient; dependent columns: {labels}",
            columns=labels,
        )
    return fit.beta
