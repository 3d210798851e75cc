"""Matrix Lie groups GL(n,C) / SL(n,C), representations and tangent data.

The Lie algebra basis convention is fixed once for the whole library:
sl(n) uses the off-diagonal units E_ij (i != j, row-major order) followed by
the diagonal differences E_ii - E_{i+1,i+1}; gl(n) uses all units E_ij in
row-major order.  Every coordinate vector elsewhere refers to this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NoConvergence
from .numeric import (
    DEFAULT_TOL,
    Tolerances,
    as_cmatrix,
    matrix_exp,
    matrix_inverse,
    nullspace_basis,
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


@dataclass(frozen=True)
class LieAlgebraBasis:
    """Ordered basis of the Lie algebra with coordinate converters."""

    matrices: tuple  # tuple of (n, n) arrays
    _pinv: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def matrix_from_coords(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        return np.tensordot(x, np.stack(self.matrices), axes=(0, 0))

    def coords_from_matrix(self, m) -> np.ndarray:
        return self._pinv @ np.asarray(m, dtype=np.complex128).reshape(-1)


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
    stack = np.stack([m.reshape(-1) for m in mats], axis=1)
    pinv = np.linalg.pinv(stack)
    return LieAlgebraBasis(tuple(mats), pinv)


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
        self.basis = lie_algebra_basis(group)
        self._inverses = tuple(matrix_inverse(m, tol) for m in self.images)
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
                if abs(np.linalg.det(m) - 1.0) > 1e-10:
                    raise InvalidInput("SL image has |det - 1| > 1e-10")
        for r in self.presentation.relators:
            res = np.linalg.norm(evaluate_word(self, r) - np.eye(self.group.n))
            if res > 10 * max(self.tol.newton_tol, 1e-12):
                raise InvalidInput(f"relator residual {res:.3e} exceeds tolerance")

    def image(self, k: int, sign: int = 1) -> np.ndarray:
        return self.images[k] if sign == 1 else self._inverses[k]

    def _generator_ad(self):
        if self._ad_gen is None:
            ad, ad_inv = [], []
            for k in range(self.p):
                ad.append(_ad_matrix(self.basis, self.images[k], self._inverses[k]))
                ad_inv.append(_ad_matrix(self.basis, self._inverses[k], self.images[k]))
            self._ad_gen = tuple(ad)
            self._ad_gen_inv = tuple(ad_inv)
        return self._ad_gen, self._ad_gen_inv


def _ad_matrix(basis: LieAlgebraBasis, a: np.ndarray, a_inv: np.ndarray) -> np.ndarray:
    cols = [basis.coords_from_matrix(a @ b @ a_inv) for b in basis.matrices]
    return np.stack(cols, axis=1)


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
    if rho.group.kind == "SL":
        det = np.linalg.det(g)
        if abs(det - 1.0) > 1e-8:
            # conjugation is insensitive to scalars; renormalize for the check
            g = g / det ** (1.0 / rho.group.n)
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


def _relator_jacobian(rho: Representation, fox_blocks) -> np.ndarray:
    """Exact first-order derivative of vec(rho(r) - I) under exp-perturbations.

    fox_blocks[r][k] is the Fox derivative of relator r w.r.t. generator k;
    a perturbation X_k of generator k moves rho(r) by (Ad-evaluated Fox
    derivative applied to X_k) * rho(r).
    """
    n = rho.group.n
    d = rho.dim_g
    p = rho.p
    rows = []
    for idx, r in enumerate(rho.presentation.relators):
        rho_r = evaluate_word(rho, r)
        block = np.zeros((n * n, p * d), dtype=np.complex128)
        for k in range(p):
            dk = evaluate_groupring(rho, fox_blocks[idx][k])
            for m in range(d):
                x = rho.basis.matrix_from_coords(dk[:, m])
                block[:, k * d + m] = (x @ rho_r).reshape(-1)
        rows.append(block)
    if not rows:
        return np.zeros((0, p * d), dtype=np.complex128)
    return np.concatenate(rows, axis=0)


def find_representation(presentation: Presentation, group: GroupSpec, seed_images,
                        tol: Tolerances = DEFAULT_TOL, max_iter: int = 50,
                        step_basis: np.ndarray | None = None) -> Representation:
    """Gauss-Newton solve of the relator equations starting from seed images.

    Perturbations act as rho(x_k) -> exp(X_k) rho(x_k) with X_k in the fixed
    Lie-algebra basis (traceless for SL, so the determinant constraint is
    maintained exactly).  Steps are damped by halving until the residual
    decreases.  ``step_basis`` (columns) optionally restricts the step to a
    subspace of the stacked coordinate space.
    """
    from .words import fox_derivative

    images = [as_cmatrix(m) for m in seed_images]
    if group.kind == "SL":
        images = [m / np.linalg.det(m) ** (1.0 / group.n) for m in images]
    rho = Representation(presentation, group, images, tol=tol, check=False)
    d = rho.dim_g
    p = rho.p
    fox_blocks = [
        [fox_derivative(r, k) for k in range(p)] for r in presentation.relators
    ]
    res = _relator_residual(rho)
    res_norm = np.linalg.norm(res)
    if not presentation.relators or res_norm <= tol.newton_tol:
        return Representation(presentation, group, rho.images, tol=tol)
    for _ in range(max_iter):
        jac = _relator_jacobian(rho, fox_blocks)
        if step_basis is not None:
            coeffs = solve_lsq(jac @ step_basis, -res)
            step = step_basis @ coeffs
        else:
            step = solve_lsq(jac, -res)
        scale = 1.0
        for _ in range(40):
            trial = []
            for k in range(p):
                x = rho.basis.matrix_from_coords(scale * step[k * d:(k + 1) * d])
                trial.append(matrix_exp(x) @ rho.images[k])
            cand = Representation(presentation, group, trial, tol=tol, check=False)
            cand_res = _relator_residual(cand)
            cand_norm = np.linalg.norm(cand_res)
            if cand_norm < res_norm:
                break
            scale *= 0.5
        else:
            raise NoConvergence(
                f"backtracking stalled at residual {res_norm:.3e}",
                residual=float(res_norm))
        rho, res, res_norm = cand, cand_res, cand_norm
        if res_norm <= tol.newton_tol:
            return Representation(presentation, group, rho.images, tol=tol)
    raise NoConvergence(
        f"no convergence after {max_iter} iterations, residual {res_norm:.3e}",
        residual=float(res_norm))


def invariant_subspace_dim(rho: Representation, tol: Tolerances = DEFAULT_TOL) -> int:
    """dim H^0(Gamma, Ad rho): joint fixed space of the generator Ad operators."""
    ad, _ = rho._generator_ad()
    d = rho.dim_g
    if not ad:
        return d
    stacked = np.concatenate([a - np.eye(d) for a in ad], axis=0)
    return nullspace_basis(stacked, tol).shape[1]


def _has_common_eigenline(rho: Representation) -> bool:
    """Exact common-invariant-line search for n = 2."""
    nonscalar = None
    for m in rho.images:
        if np.linalg.norm(m - (np.trace(m) / 2) * np.eye(2)) > 1e-12:
            nonscalar = m
            break
    if nonscalar is None:
        return True  # all images scalar: every line is invariant
    _, vecs = np.linalg.eig(nonscalar)
    for i in range(2):
        v = vecs[:, i]
        v = v / np.linalg.norm(v)
        ok = True
        for m in rho.images:
            w = m @ v
            # invariant line: w proportional to v
            if np.linalg.norm(w - (v.conj() @ w) * v) > 1e-9 * np.linalg.norm(w):
                ok = False
                break
        if ok:
            return True
    return False


def is_irreducible(rho: Representation, tol: Tolerances = DEFAULT_TOL) -> bool:
    if invariant_subspace_dim(rho, tol) > 0:
        return False
    if rho.group.n == 2:
        return not _has_common_eigenline(rho)
    return True


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
