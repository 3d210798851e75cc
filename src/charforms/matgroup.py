"""Matrix Lie groups GL(n,C) / SL(n,C), representations and tangent data.

The Lie algebra basis convention is fixed once for the whole library:
sl(n) uses the off-diagonal units E_ij (i != j, row-major order) followed by
the diagonal differences E_ii - E_{i+1,i+1}; gl(n) uses all units E_ij in
row-major order.  Every coordinate vector elsewhere refers to this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NoConvergence
from .numeric import (
    DEFAULT_TOL,
    Tolerances,
    as_cmatrix,
    matrix_exp,
    matrix_inverse,
    rank_and_gap,
    solve_lsq,
)
from .words import GroupRingElement, Presentation, Word

__all__ = [
    "GroupSpec",
    "LieAlgebraBasis",
    "lie_algebra_basis",
    "TangentVector",
    "Representation",
    "evaluate_word",
    "adjoint_operator",
    "evaluate_groupring",
    "coboundary",
    "conjugate_representation",
    "find_representation",
    "is_irreducible",
    "representation_to_json",
    "representation_from_json",
    "complex_to_json",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class GroupSpec:
    kind: str  # "GL" or "SL"
    n: int

    def __post_init__(self):
        if self.kind not in ("GL", "SL"):
            raise InvalidInput(f"unknown group kind {self.kind!r}")
        if self.n < 2:
            raise InvalidInput("matrix size must be >= 2")

    @cached_property
    def _basis(self) -> "LieAlgebraBasis":
        # built once per group; its Representations share it
        return lie_algebra_basis(self)


@dataclass(frozen=True)
class LieAlgebraBasis:
    """The fixed ordered basis of the Lie algebra with coordinate converters.

    Coordinates are read off matrix entries by index, so only the basis
    built by ``lie_algebra_basis`` is supported.
    """

    matrices: tuple  # tuple of (n, n) arrays

    @property
    def dim(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @cached_property
    def _stack(self) -> np.ndarray:
        return np.stack(self.matrices)

    def matrix_from_coords(self, x) -> np.ndarray:
        """Matrices (..., n, n) of coordinate vectors x (..., dim)."""
        x = np.asarray(x, dtype=np.complex128)
        return np.tensordot(x, self._stack, axes=(-1, 0))

    def coords_from_matrix(self, m) -> np.ndarray:
        """Coordinates (..., dim) of the orthogonal projection of m (..., n, n)
        onto the algebra.

        Off-diagonal entries come first; for sl(n) the diagonal coordinates
        are the cumulative sums of the diagonal of m - (tr m / n) I, for
        gl(n) the diagonal itself.
        """
        m = np.asarray(m, dtype=np.complex128)
        n = self.n
        diag = m.diagonal(axis1=-2, axis2=-1)
        if self.dim < n * n:
            diag = np.cumsum(diag - diag.mean(axis=-1, keepdims=True),
                             axis=-1)[..., :-1]
        rows, cols = np.nonzero(~np.eye(n, dtype=bool))
        return np.concatenate([m[..., rows, cols], diag], axis=-1)


def lie_algebra_basis(group: GroupSpec) -> LieAlgebraBasis:
    n = group.n
    mats = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = np.zeros((n, n), dtype=np.complex128)
                e[i, j] = 1.0
                mats.append(e)
    if group.kind == "SL":
        for i in range(n - 1):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, i] = 1.0
            e[i + 1, i + 1] = -1.0
            mats.append(e)
    else:
        for i in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, i] = 1.0
            mats.append(e)
    return LieAlgebraBasis(tuple(mats))


@dataclass(frozen=True)
class TangentVector:
    """One Lie-algebra coordinate vector per generator, shape (p, dim g)."""

    values: np.ndarray

    @staticmethod
    def of(values) -> "TangentVector":
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim != 2:
            raise ValueError("TangentVector values must have shape (p, dim)")
        v = v.copy()
        v.setflags(write=False)
        return TangentVector(v)

    @staticmethod
    def from_stacked(x, p: int) -> "TangentVector":
        x = np.asarray(x, dtype=np.complex128)
        return TangentVector.of(x.reshape(p, -1))

    @property
    def stacked(self) -> np.ndarray:
        return self.values.reshape(-1)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector.of(self.values + other.values)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector.of(self.values - other.values)

    def __rmul__(self, scalar) -> "TangentVector":
        return TangentVector.of(scalar * self.values)


class Representation:
    """A point of Hom(Gamma, G): one invertible matrix per generator.

    Relator residuals and (for SL) the determinant constraint are checked on
    construction unless ``check=False``.
    """

    def __init__(self, presentation: Presentation, group: GroupSpec, images,
                 tol: Tolerances = DEFAULT_TOL, check: bool = True):
        self.presentation = presentation
        self.group = group
        self.images = tuple(as_cmatrix(m) for m in images)
        self.tol = tol
        if len(self.images) != presentation.p:
            raise InvalidInput("need exactly one image per generator")
        for m in self.images:
            if m.shape != (group.n, group.n):
                raise InvalidInput(f"image shape {m.shape} != ({group.n},{group.n})")
        self.basis = group._basis
        self._inverses = tuple(matrix_inverse(
            np.reshape(self.images, (-1, group.n, group.n)), tol))
        self._ad_gen = None
        self._ad_gen_inv = None
        if check:
            self.validate()

    @property
    def p(self) -> int:
        return self.presentation.p

    @property
    def dim_g(self) -> int:
        return self.basis.dim

    def validate(self):
        if self.group.kind == "SL":
            for m in self.images:
                # Hadamard: |det m| <= prod of row norms, which scales the
                # rounding error of det
                bound = 1e-10 * np.prod(np.linalg.norm(m, axis=1))
                if abs(np.linalg.det(m) - 1.0) > bound:
                    raise InvalidInput(
                        f"SL image has |det - 1| > {bound:.3e} "
                        "(1e-10 times the product of its row norms)")
        for r in self.presentation.relators:
            res = np.linalg.norm(evaluate_word(self, r) - np.eye(self.group.n))
            if res > 10 * max(self.tol.newton_tol, 1e-12):
                raise InvalidInput(f"relator residual {res:.3e} exceeds tolerance")

    def image(self, k: int, sign: int = 1) -> np.ndarray:
        return self.images[k] if sign == 1 else self._inverses[k]

    def _generator_ad(self):
        """Ad rho(x_k) and its inverse for every generator, (p, d, d) each."""
        if self._ad_gen is None:
            n = self.group.n
            images = np.reshape(self.images, (-1, n, n))
            inverses = np.reshape(self._inverses, (-1, n, n))
            self._ad_gen = _ad_matrix(self.basis, images, inverses)
            self._ad_gen_inv = _ad_matrix(self.basis, inverses, images)
        return self._ad_gen, self._ad_gen_inv


def _ad_matrix(basis: LieAlgebraBasis, left, right) -> np.ndarray:
    """Matrix of X -> left X right in the basis, batched over the leading
    axes of left and right: (g, g^-1) gives Ad g."""
    left = np.asarray(left)[..., None, :, :]
    right = np.asarray(right)[..., None, :, :]
    images = basis.coords_from_matrix(left @ basis._stack @ right)
    return np.swapaxes(images, -1, -2)


def evaluate_word(rho: Representation, w: Word) -> np.ndarray:
    out = np.eye(rho.group.n, dtype=np.complex128)
    for g, s in w.letters:
        out = out @ rho.image(g, s)
    return out


def adjoint_operator(rho: Representation, w: Word) -> np.ndarray:
    """Matrix of X -> rho(w) X rho(w)^-1 in the fixed Lie-algebra basis."""
    ad, ad_inv = rho._generator_ad()
    out = np.eye(rho.dim_g, dtype=np.complex128)
    for g, s in w.letters:
        out = out @ (ad[g] if s == 1 else ad_inv[g])
    return out


def evaluate_groupring(rho: Representation, xi: GroupRingElement) -> np.ndarray:
    out = np.zeros((rho.dim_g, rho.dim_g), dtype=np.complex128)
    for w, c in xi.terms:
        out += c * adjoint_operator(rho, w)
    return out


def coboundary(rho: Representation, v) -> TangentVector:
    """Cocycle gamma -> v - Ad rho(gamma) v, recorded on the generators."""
    v = np.asarray(v, dtype=np.complex128)
    ad, _ = rho._generator_ad()
    return TangentVector.of(np.stack([v - ad[k] @ v for k in range(rho.p)]))


def conjugate_representation(rho: Representation, g) -> Representation:
    g = as_cmatrix(g)
    g_inv = matrix_inverse(g, rho.tol)
    return Representation(rho.presentation, rho.group,
                          [g @ m @ g_inv for m in rho.images],
                          tol=rho.tol)


def _relator_residual(rho: Representation) -> np.ndarray:
    n = rho.group.n
    blocks = [
        (evaluate_word(rho, r) - np.eye(n)).reshape(-1)
        for r in rho.presentation.relators
    ]
    if not blocks:
        return np.zeros(0, dtype=np.complex128)
    return np.concatenate(blocks)


def _relator_jacobian(rho: Representation) -> np.ndarray:
    """Exact first-order derivative of vec(rho(r) - I) under exp-perturbations.

    A perturbation X of the stacked generator coordinates moves rho(r) by
    (J_r X) rho(r), with J_r the Ad-evaluated Fox derivative of relator r.
    """
    from .cohomology import ad_fox  # cohomology imports this module
    blocks = []
    for r in rho.presentation.relators:
        x = rho.basis.matrix_from_coords(ad_fox(rho, r)[1].T)  # (p * d, n, n)
        moved = x @ evaluate_word(rho, r)
        blocks.append(moved.reshape(len(moved), -1).T)
    return np.concatenate(blocks, axis=0)


def _damped_newton(point, res, trial, jacobian, tol: Tolerances,
                   max_iter: int):
    """Gauss-Newton with step halving; returns the point that meets
    tol.newton_tol.

    ``trial(point, step)`` returns the next (point, residual) and
    ``jacobian(point)`` the derivative of the residual in the step
    coordinates.  A step is halved until the residual norm decreases; a
    trial that raises ValueError (non-finite or singular) counts as
    rejected.  Raises NoConvergence when the halvings or iterations run out.
    """
    res_norm = np.linalg.norm(res)
    for _ in range(max_iter):
        if res_norm <= tol.newton_tol:
            return point
        step = solve_lsq(jacobian(point), -res)
        scale = 1.0
        for _ in range(40):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    cand, cand_res = trial(point, scale * step)
            except ValueError:  # the step overshot
                cand_norm = np.inf
            else:
                cand_norm = np.linalg.norm(cand_res)
            if cand_norm < res_norm:
                break
            scale *= 0.5
        else:
            raise NoConvergence(
                f"backtracking stalled at residual {res_norm:.3e}",
                residual=float(res_norm))
        point, res, res_norm = cand, cand_res, cand_norm
    if res_norm <= tol.newton_tol:
        return point
    raise NoConvergence(
        f"no convergence after {max_iter} iterations, residual {res_norm:.3e}",
        residual=float(res_norm))


def find_representation(presentation: Presentation, group: GroupSpec, seed_images,
                        tol: Tolerances = DEFAULT_TOL,
                        max_iter: int = 50) -> Representation:
    """Gauss-Newton solve of the relator equations starting from seed images.

    Perturbations act as rho(x_k) -> exp(X_k) rho(x_k) with X_k in the fixed
    Lie-algebra basis (traceless for SL, so the determinant constraint is
    maintained exactly).  Steps are damped by halving until the residual
    decreases; a step whose exponential overflows or is numerically singular
    counts as rejected.
    """
    images = [as_cmatrix(m) for m in seed_images]
    if group.kind == "SL":
        images = [m / np.linalg.det(m) ** (1.0 / group.n) for m in images]
    rho = Representation(presentation, group, images, tol=tol, check=False)
    shape = (rho.p, rho.dim_g)

    def trial(point, step):
        moved = matrix_exp(rho.basis.matrix_from_coords(step.reshape(shape)))
        cand = Representation(presentation, group, moved @ np.stack(point.images),
                              tol=tol, check=False)
        return cand, _relator_residual(cand)

    rho = _damped_newton(rho, _relator_residual(rho), trial, _relator_jacobian,
                         tol, max_iter)
    rho.validate()
    return rho


def invariant_subspace_dim(rho: Representation, tol: Tolerances = DEFAULT_TOL) -> int:
    """dim H^0(Gamma, Ad rho): joint fixed space of the generator Ad operators."""
    ad, _ = rho._generator_ad()
    d = rho.dim_g
    if not rho.p:
        return d
    stacked = np.concatenate([a - np.eye(d) for a in ad], axis=0)
    return d - rank_and_gap(stacked, tol).rank


def is_irreducible(rho: Representation, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Burnside: rho is irreducible iff its images span M_n(C) as an algebra.

    The span starts at I and is multiplied by every (normalised) image until
    its dimension, one ``rank_and_gap`` decision per round, stops growing.
    """
    n = rho.group.n
    gens = [m / np.linalg.norm(m) for m in rho.images]
    span = np.eye(n, dtype=np.complex128).reshape(n * n, 1)
    while True:
        mats = span.T.reshape(-1, n, n)
        products = np.concatenate([mats, *(mats @ g for g in gens)])
        grown = rank_and_gap(products.reshape(-1, n * n).T, tol)
        if grown.rank == span.shape[1]:
            return grown.rank == n * n
        span = grown.image


# ---------------------------------------------------------------------------
# JSON wire format: complex numbers are [re, im] pairs everywhere.

def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_json(m) -> list:
    m = as_cmatrix(m)
    return [[complex_to_json(z) for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data],
                    dtype=np.complex128)


def representation_to_json(rho: Representation) -> dict:
    return {
        "group": {"kind": rho.group.kind, "n": rho.group.n},
        "images": {
            name: matrix_to_json(m)
            for name, m in zip(rho.presentation.generator_names, rho.images)
        },
    }


def representation_from_json(data: dict, presentation: Presentation,
                             tol: Tolerances = DEFAULT_TOL) -> Representation:
    try:
        group = GroupSpec(data["group"]["kind"], int(data["group"]["n"]))
        images = [matrix_from_json(data["images"][name])
                  for name in presentation.generator_names]
    except KeyError as exc:
        raise InvalidInput(f"representation is missing {exc}") from exc
    return Representation(presentation, group, images, tol=tol)
