"""Matrix Lie groups GL(n,C) / SL(n,C), representations and tangent data.

The Lie algebra basis convention is fixed once for the whole library:
sl(n) uses the off-diagonal units E_ij (i != j, row-major order) followed by
the diagonal differences E_ii - E_{i+1,i+1}; gl(n) uses all units E_ij in
row-major order.  Every coordinate vector elsewhere refers to this ordering.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NoConvergence, malformed, positive_int
from .numeric import (
    DEFAULT_TOL,
    Tolerances,
    as_cmatrix,
    matrix_exp,
    matrix_inverse,
    rank_and_gap,
    solve_lsq,
)
from .words import Presentation, Word

__all__ = [
    "GroupSpec",
    "LieAlgebraBasis",
    "lie_algebra_basis",
    "Representation",
    "evaluate_word",
    "coboundary",
    "find_representation",
    "is_irreducible",
    "representation_to_json",
    "representation_from_json",
    "group_from_json",
    "complex_to_json",
    "complex_from_json",
]

_BASES: dict = {}  # one basis per (kind, n), shared and read-only


@dataclass(frozen=True)
class GroupSpec:
    kind: str  # "GL" or "SL"
    n: int

    def __post_init__(self):
        if self.kind not in ("GL", "SL"):
            raise InvalidInput(f"unknown group kind {self.kind!r}")
        if self.n < 2:
            raise InvalidInput("matrix size must be >= 2")


@dataclass(frozen=True, eq=False)
class LieAlgebraBasis:
    """The fixed ordered basis of the Lie algebra with coordinate converters:
    ``matrices`` is one read-only array (dim, n, n) of the basis matrices.

    Coordinates are read off matrix entries by index, so only the basis
    built by ``lie_algebra_basis`` is supported.
    """

    matrices: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices.shape[-1]

    @cached_property
    def _structure(self) -> np.ndarray:  # row a: ad B_a flattened, (d, d * d)
        eye = np.eye(self.n)
        ads = _ad_matrix(self, self.matrices, eye) - _ad_matrix(self, eye, self.matrices)
        return _read_only(ads.reshape(self.dim, -1))

    def ad(self, x) -> np.ndarray:
        """Matrices (..., d, d) of ad X = [X, .] for coordinates x (..., d)."""
        return (x @ self._structure).reshape(np.shape(x) + (self.dim,))

    def matrix_from_coords(self, x) -> np.ndarray:
        """Matrices (..., n, n) of coordinate vectors x (..., dim)."""
        x = np.asarray(x, dtype=np.complex128)
        return np.tensordot(x, self.matrices, axes=(-1, 0))

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def lie_algebra_basis(group: GroupSpec) -> LieAlgebraBasis:
    key, n = (group.kind, group.n), group.n
    if key not in _BASES:
        unit = np.eye(n * n, dtype=np.complex128).reshape(n, n, n, n)
        diagonal = unit[range(n), range(n)]  # unit[i, j] = E_ij
        diagonal = diagonal[:-1] - diagonal[1:] if group.kind == "SL" else diagonal
        _BASES[key] = LieAlgebraBasis(_read_only(np.concatenate(
            [unit[~np.eye(n, dtype=bool)], diagonal])))
    return _BASES[key]


class Representation:
    """A point of Hom(Gamma, G): one invertible matrix per generator, the
    ``_Points`` record ``_at`` and the tolerances ``tol`` of its decisions.

    Relator residuals and (for SL) the determinant constraint are checked on
    construction unless ``check=False``."""

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
        self.basis, n = lie_algebra_basis(group), group.n
        images = np.reshape(self.images, (-1, n, n))
        self._at = _points(presentation, self.basis, images, matrix_inverse(images, tol))
        self._fox = None  # built on first use
        if check:
            self.validate()

    @property
    def p(self) -> int:
        return self.presentation.p

    @property
    def dim_g(self) -> int:
        return self.basis.dim

    def validate(self):
        bad = _violation(self.group, self._at.images, self._at.rel,
                         self.tol.relator_bound)
        if bad is not None:
            raise InvalidInput(bad[1])


_Points = namedtuple("_Points", "images inverses ad ad_inv rel")  # built by _points


def _points(presentation: Presentation, basis: LieAlgebraBasis, images,
            inverses) -> _Points:
    """Points of Hom(Gamma, G) evaluated once, over the leading axes of their
    images and inverses (..., p, n, n): both, Ad of both (..., p, d, d) from
    one ``_ad_matrix`` and the relator values (..., R, n, n)."""
    ad = _ad_matrix(basis, np.stack([images, inverses]), np.stack([inverses, images]))
    return _Points(images, inverses, *ad,
                   _word_values(presentation.relators, images, inverses))


def _residual(point: _Points) -> np.ndarray:
    """Newton residual vec(rho(r) - I) of one point, (R n^2,)."""
    return (point.rel - np.eye(point.rel.shape[-1])).reshape(-1)


def _ad_matrix(basis: LieAlgebraBasis, left, right) -> np.ndarray:
    """Matrix of X -> left X right in the basis, batched over the leading
    axes of left and right: (g, g^-1) gives Ad g.

    The image of a unit E_ij is the outer product of column i of left and
    row j of right (kron(left, right^T)); the n - 1 diagonal H_i of sl(n)
    are multiplied out as (left H_i) right, which keeps every entry equal to
    the product definition to the last bit.  One readout takes all images."""
    left, right = np.asarray(left), np.asarray(right)
    n = basis.n
    k = n * n if basis.dim == n * n else n * n - n  # the units lead the basis
    units = np.flatnonzero(basis.matrices[:k].reshape(k, -1)) % (n * n)
    outer = left.swapaxes(-1, -2)[..., :, None, :, None] * right[..., None, :, None, :]
    images = outer.reshape(outer.shape[:-4] + (n * n, n, n))[..., units, :, :]
    if k < basis.dim:  # left H_i is left times the diagonal of H_i, exactly
        scaled = left[..., None, :, :] * np.diagonal(basis.matrices[k:], 0, 1, 2)[:, None]
        images = np.concatenate([images, scaled @ right[..., None, :, :]], axis=-3)
    return np.swapaxes(basis.coords_from_matrix(images), -1, -2)


def evaluate_word(rho: Representation, w: Word) -> np.ndarray:
    """rho(w), the one-word case of ``_word_values``."""
    return _word_values([w], rho._at.images, rho._at.inverses)[0]


def coboundary(rho: Representation, v):
    """Cocycle gamma -> v - Ad rho(gamma) v, recorded on the generators and
    stacked: (p d,) for v (d,), (p d, k) for k vectors v (d, k)."""
    v = np.asarray(v, dtype=np.complex128)
    return (v - rho._at.ad @ v).reshape((-1,) + v.shape[1:])


def _stacked_columns(rho: Representation, a) -> np.ndarray:
    """a if it stacks cocycles at rho in columns (..., p dim g, k), else InvalidInput."""
    if np.shape(a)[-2:-1] != (rho.p * rho.dim_g,):
        raise InvalidInput(f"a stacked cocycle has p dim g = {rho.p * rho.dim_g} "
                           f"entries: not the columns of shape {np.shape(a)}")
    return a


def _word_values(words, images, inverses) -> np.ndarray:
    """rho(w) (..., W, n, n) of the words, from the images and their inverses
    (..., p, n, n): the one product loop for group words."""
    n = images.shape[-1]
    out = np.empty(images.shape[:-3] + (len(words), n, n), complex)
    for i, w in enumerate(words):
        prod = np.eye(n, dtype=complex)
        for g, s in w.letters:
            prod = prod @ (images if s == 1 else inverses)[..., g, :, :]
        out[..., i, :, :] = prod
    return out


def _relator_jacobian(rho: Representation, point: _Points, values) -> np.ndarray:
    """Derivative (R n^2, k) of the ``_residual`` of one point of rho's
    presentation along k directions with generator values (p, d, k):
    moving rho(x_j) to exp(X_j) rho(x_j) moves rho(r) by (J_r X) rho(r),
    J_r X the ``cocycle_walk`` of r on X."""
    from .cohomology import cocycle_walk  # cohomology imports this module
    rel, rows, k = point.rel, rho.basis.n ** 2, values.shape[-1]
    out = np.empty((len(rel), k, rows), complex)
    for i, r in enumerate(rho.presentation.relators):
        walked = cocycle_walk(point.ad, point.ad_inv, values, r.letters)[1].T
        out[i] = (rho.basis.matrix_from_coords(walked) @ rel[i]).reshape(k, rows)
    return out.swapaxes(1, 2).reshape(-1, k)


def identity_values(rho: Representation) -> np.ndarray:
    """Generator values (p, d, p * d) whose walk sigma(w) is J_w."""
    pd = rho.p * rho.dim_g
    return np.eye(pd, dtype=np.complex128).reshape(rho.p, rho.dim_g, pd)


def _violation(group: GroupSpec, images, values, relator_bound: float):
    """(index, reason) for the first point, by flat index over the leading
    axes of images (..., p, n, n) and relator values (..., R, n, n), that
    leaves Hom(Gamma, G): an SL image off det = 1, or a relator residual
    above ``relator_bound``; None if none.  Hadamard: |det m| is at most the
    product of the row norms of m, which scales the rounding error of det."""
    size = int(np.prod(images.shape[:-3]))
    images, values = (np.reshape(a, (size,) + a.shape[-3:]) for a in (images, values))
    if group.kind == "SL":
        bound = 1e-10 * np.prod(np.linalg.norm(images, axis=-1), axis=-1)
        for k, j in np.argwhere(np.abs(np.linalg.det(images) - 1.0) > bound)[:1]:
            return k, (f"SL image has |det - 1| > {bound[k, j]:.3e} "
                       "(1e-10 times the product of its row norms)")
    res = np.linalg.norm(values - np.eye(group.n), axis=(-2, -1))
    for k, j in np.argwhere(res > relator_bound)[:1]:
        return k, f"relator residual {res[k, j]:.3e} exceeds tolerance"
    return None


def _moved(rho: Representation, x, points: _Points) -> _Points:
    """The points exp(X_j) rho(x_j) for coordinates x (..., p, d) and points of
    rho's presentation: one matrix_exp, no inversion."""
    e = matrix_exp(rho.basis.matrix_from_coords(np.stack([x, -x])))
    return _points(rho.presentation, rho.basis, e[0] @ points.images,
                   points.inverses @ e[1])


_NEWTON_ITERATIONS = 50  # the iteration budget of every damped Newton solve


def _damped_newton(state, res, trial, jacobian, tol: Tolerances):
    """Gauss-Newton with step halving; returns the state once its residual
    norm meets tol.newton_tol.

    ``state`` is the caller's own record, passed through untouched, and
    ``res`` (r,) its residual; ``trial(state, step)`` gives the (state,
    residual) of the state moved by ``step`` (k,) and ``jacobian(state)`` its
    derivative (r, k).  The step is halved until the residual norm falls, at
    most 40 times per iteration; a non-finite trial counts as rejected.
    Raises NoConvergence when the halvings or the _NEWTON_ITERATIONS
    iterations run out.
    """
    norm = np.linalg.norm(res, axis=-1)
    for _ in range(_NEWTON_ITERATIONS):
        if norm <= tol.newton_tol:
            return state
        step = solve_lsq(jacobian(state), -res)
        for _ in range(40):
            with np.errstate(over="ignore", invalid="ignore"):
                cand, cand_res = trial(state, step)
                cand_norm = np.linalg.norm(cand_res, axis=-1)
            if cand_norm < norm:  # False if the trial is not finite
                break
            step = 0.5 * step
        else:
            raise NoConvergence(f"backtracking stalled at residual {norm:.3e}",
                                residual=float(norm))
        state, res, norm = cand, cand_res, cand_norm
    if norm > tol.newton_tol:
        raise NoConvergence(f"no convergence after {_NEWTON_ITERATIONS} "
                            f"iterations, residual {norm:.3e}", residual=float(norm))
    return state


def find_representation(presentation: Presentation, group: GroupSpec, seed_images,
                        tol: Tolerances = DEFAULT_TOL) -> Representation:
    """Gauss-Newton solve of the relator equations starting from seed images,
    ``_damped_newton`` on the ``_Points`` record of the images.

    Perturbations act as rho(x_k) -> exp(X_k) rho(x_k) with X_k in the fixed
    Lie-algebra basis (traceless for SL, so the determinant constraint is
    maintained exactly).  Steps are damped by halving until the residual
    decreases; a step whose exponential overflows counts as rejected.
    """
    images = [as_cmatrix(m) for m in seed_images]
    if group.kind == "SL":
        images = [m / np.linalg.det(m) ** (1.0 / group.n) for m in images]
    rho = Representation(presentation, group, images, tol=tol, check=False)
    identity = identity_values(rho)

    def trial(points, step):
        points = _moved(rho, step.reshape(rho.p, rho.dim_g), points)
        return points, _residual(points)

    points = _damped_newton(rho._at, _residual(rho._at), trial,
                            lambda points: _relator_jacobian(rho, points, identity), tol)
    return Representation(presentation, group, points.images, tol=tol)


def is_irreducible(rho: Representation) -> bool:
    """Burnside: rho is irreducible iff its images span M_n(C) as an algebra.

    The span starts at I and is multiplied by every (normalised) image until
    its dimension, one ``rank_and_gap`` decision per round at rho.tol, stops
    growing.
    """
    n = rho.group.n
    gens = [m / np.linalg.norm(m) for m in rho.images]
    span = np.eye(n, dtype=np.complex128).reshape(n * n, 1)
    while True:
        mats = span.T.reshape(-1, n, n)
        products = np.concatenate([mats, *(mats @ g for g in gens)])
        grown = rank_and_gap(products.reshape(-1, n * n).T, rho.tol)
        if grown.rank == span.shape[1]:
            return grown.rank == n * n
        span = grown.image


# ---------------------------------------------------------------------------
# JSON wire format: complex numbers are [re, im] pairs everywhere, written by
# complex_to_json and read by complex_from_json only.

def complex_to_json(obj):
    """Recursively render complex scalars as [re, im] and arrays as lists."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], -1)
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): complex_to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [complex_to_json(v) for v in obj]
    return obj


def complex_from_json(data, ndim: int, what: str) -> np.ndarray:
    """The complex array of rank ``ndim`` whose entries are the [re, im] pairs
    of ``data``; anything else raises InvalidInput naming ``what``.  Pairs must
    be finite numbers; as in numpy, a bool among numbers reads as 0 or 1."""
    try:
        pairs = np.array(data)
    except (TypeError, ValueError):  # ragged nesting
        pairs = None
    if (pairs is None or pairs.ndim != ndim + 1 or pairs.shape[-1] != 2
            or pairs.dtype.kind not in "iuf" or not np.isfinite(pairs).all()):
        shape = f"a rank-{ndim} array of [re, im] pairs" if ndim else "an [re, im] pair"
        raise InvalidInput(f"{what} must be {shape} of finite numbers")
    return pairs.astype(np.float64, copy=False).view(np.complex128)[..., 0]


def representation_to_json(rho: Representation) -> dict:
    images = complex_to_json(np.array(rho.images))
    return {"group": {"kind": rho.group.kind, "n": rho.group.n},
            "images": dict(zip(rho.presentation.generator_names, images))}


def group_from_json(data: dict) -> GroupSpec:
    return GroupSpec(data["kind"], positive_int(data["n"], "group 'n'"))


def representation_from_json(data: dict, presentation: Presentation,
                             tol: Tolerances = DEFAULT_TOL) -> Representation:
    with malformed("representation"):
        group = group_from_json(data["group"])
        images = complex_from_json([data["images"][name]
                                    for name in presentation.generator_names],
                                   3, "representation 'images'")
        return Representation(presentation, group, images, tol=tol)
