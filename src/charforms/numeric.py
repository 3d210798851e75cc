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

from .errors import ConvergenceFailure, SingularMatrix

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
    fd_step: float = 1e-4      # base finite-difference step

    def __post_init__(self):
        if not (self.rank_rel > 0 and self.newton_tol > 0 and self.fd_step > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.rank_rel >= 1:
            raise ValueError("rank_rel must be < 1")


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


def _svdvals(m: np.ndarray) -> np.ndarray:
    try:
        return scipy.linalg.svdvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceFailure(f"SVD failed: {exc}") from exc


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
    """Minimum-norm least-squares solution of a x = b, with singular values
    of a below the default relative rank cutoff treated as zero."""
    a = as_cmatrix(a)
    b = np.asarray(b, dtype=np.complex128)
    x, *_ = scipy.linalg.lstsq(a, b, cond=DEFAULT_TOL.rank_rel,
                               lapack_driver="gelsd")
    return x


def matrix_exp(m) -> np.ndarray:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix_exp requires a square matrix")
    return scipy.linalg.expm(m)


def matrix_inverse(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix_inverse requires a square matrix")
    s = _svdvals(m)
    if s[-1] <= tol.rank_rel * s[0] or s[-1] == 0.0:
        raise SingularMatrix(
            f"smallest singular value {s[-1]:.3e} <= rank_rel times the "
            f"largest, {s[0]:.3e}")
    return np.linalg.inv(m)
