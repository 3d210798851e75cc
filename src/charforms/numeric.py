"""Dense complex linear algebra kernel.

Thin wrappers around numpy/scipy.  Every rank, column-space and null-space
decision in the library is one call of ``rank_and_gap``: one SVD under one
relative cutoff, so dimension counts elsewhere are consistent and each
decision carries the gap and margin it was made with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, InvalidInput, SingularMatrix

__all__ = [
    "Tolerances",
    "as_cmatrix",
    "RankDecision",
    "rank_and_gap",
    "solve_lsq",
    "matrix_exp",
    "matrix_inverse",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the library."""

    rank_rel: float = 1e-10   # relative singular-value cutoff
    newton_tol: float = 1e-12  # Gauss-Newton residual bound

    def __post_init__(self):
        if not (self.rank_rel > 0 and self.newton_tol > 0):
            raise InvalidInput(f"tolerances must be strictly positive: {self}")
        if self.rank_rel >= 1:
            raise InvalidInput(f"rank_rel must be < 1, got {self.rank_rel}")


DEFAULT_TOL = Tolerances()


def as_cmatrix(data) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _square_stack(data, what: str) -> np.ndarray:
    """Coerce to a complex128 square matrix or stack (..., n, n) of them,
    rejecting non-finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{what} requires square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class RankDecision:
    """One SVD rank decision under the relative cutoff tol.rank_rel * s_max.

    ``gap`` is smallest-kept / largest-dropped singular value (inf when
    nothing nonzero is dropped).  ``margin`` is the factor by which the
    singular value nearest the cutoff clears it (inf for a zero matrix);
    below 10 the rank is untrustworthy.  ``image`` and ``kernel`` are
    orthonormal bases (columns) of the column space and the null space.
    """

    rank: int
    gap: float
    margin: float
    image: np.ndarray
    kernel: np.ndarray


def rank_and_gap(m, tol: Tolerances = DEFAULT_TOL) -> RankDecision:
    """Rank, gap, cutoff margin and both bases of m from one SVD (thin
    unless m is wide, where the null space needs the full V)."""
    m = as_cmatrix(m)
    rows, cols = m.shape
    if not m.any():
        return RankDecision(0, np.inf, np.inf,
                            np.zeros((rows, 0), dtype=np.complex128),
                            np.eye(cols, dtype=np.complex128))
    try:
        u, s, vh = scipy.linalg.svd(m, full_matrices=rows < cols)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceFailure(f"SVD failed: {exc}") from exc
    cutoff = tol.rank_rel * s[0]
    rank = int(np.sum(s > cutoff))
    kept, dropped = s[rank - 1], (s[rank] if rank < len(s) else 0.0)
    with np.errstate(divide="ignore"):
        gap, margin = kept / dropped, min(kept / cutoff, cutoff / dropped)
    return RankDecision(rank, float(gap), float(margin),
                        u[:, :rank], vh[rank:].conj().T)


def solve_lsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of a x = b, batched over the
    leading axes of a (..., m, k) and b (..., m, q), or of b (..., m).  One
    SVD per matrix; singular values at most the default relative rank cutoff
    times the largest count as zero."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    vector = b.ndim == a.ndim - 1
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    with np.errstate(divide="ignore"):
        inv = np.where(s > DEFAULT_TOL.rank_rel * s[..., :1], 1.0 / s, 0.0)[..., None]
    x = np.conj(vh).swapaxes(-1, -2) @ (
        inv * (np.conj(u).swapaxes(-1, -2) @ (b[..., None] if vector else b)))
    return x[..., 0] if vector else x


def matrix_exp(m) -> np.ndarray:
    """Exponential of a square matrix or of each matrix of a stack (..., n, n)."""
    return scipy.linalg.expm(_square_stack(m, "matrix_exp"))


def matrix_inverse(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix or of each matrix of a stack (..., n, n).

    One batched SVD checks them all: a matrix whose smallest singular value
    is at most tol.rank_rel times its largest raises SingularMatrix, naming
    its index in the (flattened) stack.
    """
    m = _square_stack(m, "matrix_inverse")
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceFailure(f"SVD failed: {exc}") from exc
    s = s.reshape(-1, s.shape[-1])
    singular = (s[:, -1] <= tol.rank_rel * s[:, 0]) | (s[:, -1] == 0.0)
    if singular.any():
        k = int(np.argmax(singular))
        where = f"matrix {k} of {len(s)}: " if m.ndim > 2 else ""
        raise SingularMatrix(
            f"{where}smallest singular value {s[k, -1]:.3e} <= rank_rel times "
            f"the largest, {s[k, 0]:.3e}", index=k)
    return np.linalg.inv(m)
