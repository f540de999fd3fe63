"""Small linear-algebra helpers used across modules.

Every square root, inverse root and rank of a symmetric PSD matrix comes
from psd_roots: one eigendecomposition and one rank rule (eigenvalues above
RANK_RTOL * lambda_max), so all callers agree on when a matrix is singular
and, through PsdRoots.leaves_row_space, on when a vector escapes its row
space.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InputFormatError

# Relative cutoff that defines numerical rank.
RANK_RTOL = 1e-10
# Relative size of the out-of-row-space component that counts as leaving it.
OUT_OF_ROW_SPACE_RTOL = 1e-8


def as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if not np.all(np.isfinite(v)):
        raise InputFormatError(f"{name} contains non-finite entries")
    return v


def check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    a = check_square(a)
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
