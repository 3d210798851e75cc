"""Dense complex linear algebra kernel.

Built on numpy alone.  Every rank, column-space and null-space decision in the
library is one call of ``rank_and_gap``: one SVD under one relative cutoff, so
dimension counts elsewhere agree and each decision carries its gap and margin.
``solve_lsq`` is LAPACK's gelsd with that cutoff: rcond is the default rank_rel.
``matrix_exp`` is one path of Higham's Pade scaling and squaring (SIAM J.
Matrix Anal. Appl. 26, 2005), degree 13 on every matrix of a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

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
        if not (0 < self.rank_rel < 1 and 0 < self.newton_tol < np.inf):
            raise InvalidInput("tolerances need 0 < rank_rel < 1 and a finite "
                               f"newton_tol > 0: {self}")

    @property
    def relator_bound(self) -> float:
        """Largest relator residual |rho(r) - I| accepted at a point."""
        return 10 * max(self.newton_tol, 1e-12)


DEFAULT_TOL = Tolerances()


def as_cmatrix(data) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise InvalidInput(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix has non-finite entries")
    return m


def _square_stack(data, what: str) -> np.ndarray:
    """Coerce to a complex128 square matrix or stack (..., n, n) of them,
    rejecting non-finite entries."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInput(f"{what} requires square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix has non-finite entries")
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
        u, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
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
    """Minimum-norm least-squares solution of one system a x = b, a (m, k)
    and b (m,) or (m, q), by LAPACK's gelsd: singular values at most the
    default relative rank cutoff times the largest count as zero.  A system
    of no rows (m = 0) has x = 0."""
    return np.linalg.lstsq(as_cmatrix(a), b, rcond=DEFAULT_TOL.rank_rel)[0]


# theta_13, the 1-norm up to which the [13/13] Pade approximant of exp is
# accurate to unit roundoff (Higham 2005, Table 2.3), and its coefficients
# b_j = (26 - j)! / (j! (13 - j)!) divided by b_0, so that exp(0) = I exactly
_THETA_13 = 5.371920351148152
_B = [factorial(26 - j) * factorial(13) / (factorial(j) * factorial(13 - j) * factorial(26))
      for j in range(14)]


def matrix_exp(m) -> np.ndarray:
    """Exponential of a square matrix or of each matrix of a stack (..., n, n).

    Each matrix is scaled by 2^-s, s the least that brings its 1-norm to at
    most theta_13, takes the [13/13] Pade approximant (V - U)^-1 (V + U) from
    a^2, a^4 and a^6 and is squared s times: the same result alone or in a
    stack, and exp(0) = I exactly.  A matrix whose exponential overflows gets
    non-finite entries; the others are unaffected.
    """
    m = _square_stack(m, "matrix_exp")
    b, ident = _B, np.eye(m.shape[-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        norm = np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0)
        s = np.clip(np.ceil(np.log2(norm / _THETA_13)), 0, 1024).astype(int)
        a = m * 0.5 ** s[..., None, None]
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
        out = np.linalg.solve(v - u, v + u)
        for i in range(s.max(initial=0)):
            rows = s > i
            out[rows] = out[rows] @ out[rows]
    return out


def matrix_inverse(m, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix or of each matrix of a stack (..., n, n).

    A matrix whose smallest singular value is at most tol.rank_rel times its
    largest raises SingularMatrix, whose ``index`` is its position in the
    (flattened) stack.  The SVD that decides this runs only on the matrices whose
    ||m||_F ||m^-1||_F >= kappa_2(m) reaches 0.5 / tol.rank_rel or is not
    finite, and on the whole stack when np.linalg.inv finds one exactly
    singular; one the cutoff passes, as rank_rel below rounding can, still
    raises SingularMatrix at the first exact zero pivot.
    """
    m = _square_stack(m, "matrix_inverse")
    flat = m.reshape(-1, *m.shape[-2:])
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inv, doubtful = None, np.arange(len(flat))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = (np.linalg.norm(flat, axis=(-2, -1))
                     * np.linalg.norm(inv.reshape(flat.shape), axis=(-2, -1)))
        doubtful = np.flatnonzero(~(kappa < 0.5 / tol.rank_rel))
    if doubtful.size:
        try:
            s = np.linalg.svd(flat[doubtful], compute_uv=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise ConvergenceFailure(f"SVD failed: {exc}") from exc
        singular = (s[:, -1] <= tol.rank_rel * s[:, 0]) | (s[:, -1] == 0.0)
        if singular.any():
            j = int(np.argmax(singular))
            raise SingularMatrix(
                f"smallest singular value {s[j, -1]:.3e} <= rank_rel times "
                f"the largest, {s[j, 0]:.3e}", index=int(doubtful[j]))
    if inv is None:  # the cutoff passed a matrix whose LU has an exact zero pivot
        raise SingularMatrix("np.linalg.inv finds an exact zero pivot",
                             index=int(np.argmax(np.linalg.slogdet(flat)[0] == 0)))
    return inv
