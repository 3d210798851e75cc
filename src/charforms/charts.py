"""Local charts on the representation variety and finite-difference calculus.

The chart at a point rho with directions S (stacked cocycles) is

    rho_k(t, c) = exp(Y_k) rho_k,   Y = S t + C c,

where C is an orthonormal basis of the complement of Z^1 (the column space of
the Fox Jacobian's conjugate transpose), of dimension rank J.  ``retract``
solves the relator equations F(t, c) = 0 for c by Newton's method.  The
derivative of F in c is M C with M = (relator Jacobian at rho(t, c)) times
blockdiag_k phi(ad Y_k), where phi(ad Y) = (e^{ad Y} - 1) / ad Y is the
right-trivialised differential of exp.  M C is invertible on its image at
the center, so by the implicit-function theorem c(t) is unique and
holomorphic in t: the chart is a holomorphic map, independent of how the
solve proceeds.

The chart tangents come from the same theorem rather than from differencing
retractions: c'(t) = -(M C)^+ M S and the i-th tangent is
phi(ad Y) (S e_i + C c'_i).  Exterior derivatives of pulled-back forms are
central differences of their coefficients with Richardson extrapolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cohomology import BarChain, cocycle_space, fox_jacobian
from .errors import LeftChart
from .forms import EtaContext, eta
from .matgroup import (
    GroupSpec,
    LieAlgebraBasis,
    Representation,
    TangentVector,
    _ad_matrix,
    _damped_newton,
    _relator_jacobian,
    _relator_residual,
    matrix_exp,
)
from .invariants import InvariantPolynomial, killing_form, symmetric_tensor
from .numeric import DEFAULT_TOL, Tolerances, rank_and_gap, solve_lsq
from .words import Presentation, Word

__all__ = [
    "Chart",
    "retract",
    "transported_direction",
    "eta_coefficients",
    "fd_exterior_derivative",
    "free_group_demo",
]


@dataclass
class Chart:
    """Center representation plus tangent directions spanning the chart."""

    center: Representation
    directions: tuple
    tol: Tolerances = DEFAULT_TOL
    _span: np.ndarray = field(init=False, repr=False)
    _complement: np.ndarray = field(init=False, repr=False)
    # (t, point, stacked Y) of the latest retraction, for its tangents
    _last: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.directions = tuple(self.directions)
        self._span = np.stack([s.stacked for s in self.directions], axis=1)
        # the orthogonal complement of Z^1 at the center; the correction c
        # lives here, so the relator equations fix it uniquely
        jac = fox_jacobian(self.center)
        self._complement = rank_and_gap(jac.conj().T, self.tol).image

    @property
    def dim(self) -> int:
        return len(self.directions)


def _dexp(basis: LieAlgebraBasis, y: np.ndarray) -> np.ndarray:
    """phi(ad Y_k) = (e^{ad Y_k} - 1) / ad Y_k, shape (p, d, d), for the
    blocks y_k of the stacked coordinates y.

    Read off one batched block exponential:
    exp([[ad Y, I], [0, 0]]) = [[e^{ad Y}, phi(ad Y)], [0, I]].
    """
    d = basis.dim
    y = y.reshape(-1, d)
    p = len(y)
    mats = basis.matrix_from_coords(y)
    eye = np.eye(basis.n)
    block = np.zeros((p, 2 * d, 2 * d), dtype=np.complex128)
    block[:, :d, :d] = _ad_matrix(basis, mats, eye) - _ad_matrix(basis, eye, mats)
    block[:, :d, d:] = np.eye(d)
    return matrix_exp(block)[:, :d, d:]


def _point(chart: Chart, y: np.ndarray) -> Representation:
    """The unchecked point exp(Y_k) rho_k of stacked coordinates y."""
    rho = chart.center
    moved = matrix_exp(rho.basis.matrix_from_coords(y.reshape(rho.p, -1)))
    return Representation(rho.presentation, rho.group,
                          moved @ np.stack(rho.images), tol=chart.tol,
                          check=False)


def _pushed_images(chart: Chart, t) -> list:
    """Images of the uncorrected point exp(S t) rho."""
    t = np.asarray(t, dtype=np.complex128)
    return list(_point(chart, chart._span @ t).images)


def _chart_jacobian(point: Representation, phi: np.ndarray) -> np.ndarray:
    """M: the derivative of the relator residual in the stacked chart
    coordinates Y, the relator Jacobian times blockdiag_k phi(ad Y_k)."""
    p, d = point.p, point.dim_g
    jac = _relator_jacobian(point).reshape(-1, p, d)
    return np.einsum("rkd,kde->rke", jac, phi).reshape(-1, p * d)


def retract(chart: Chart, t) -> Representation:
    """Map chart parameters to the point rho(t, c(t)) of Hom(Gamma, G).

    retract(0) is the center; for a free group the chart is the exponential
    curve itself.  Raises NoConvergence when Newton's method fails and
    LeftChart when the correction moves the images by more than |t|.
    """
    t = np.asarray(t, dtype=np.complex128)
    base, comp = chart._span @ t, chart._complement

    def at(c):
        point = _point(chart, base + comp @ c)
        return (c, point), _relator_residual(point)

    def jacobian(state):
        c, point = state
        phi = _dexp(point.basis, base + comp @ c)
        return _chart_jacobian(point, phi) @ comp

    start, res = at(np.zeros(comp.shape[1], dtype=np.complex128))
    c, solved = _damped_newton(start, res, lambda state, step: at(state[0] + step),
                               jacobian, chart.tol, 50)
    solved.validate()
    correction = sum(
        np.linalg.norm(a - b) for a, b in zip(solved.images, start[1].images))
    t_norm = float(np.linalg.norm(t))
    if t_norm > 0 and correction > t_norm:
        raise LeftChart(
            f"correction {correction:.3e} exceeds |t| = {t_norm:.3e}")
    chart._last = (t.tobytes(), solved, base + comp @ c)
    return solved


def _tangents(chart: Chart, t) -> list:
    """The exact tangents of the chart at t, from the implicit-function
    theorem at the retracted point (retracting only if t was not the last
    point retracted)."""
    t = np.asarray(t, dtype=np.complex128)
    if chart._last is None or chart._last[0] != t.tobytes():
        retract(chart, t)
    _, point, y = chart._last
    span, comp = chart._span, chart._complement
    phi = _dexp(point.basis, y)
    moved = span  # S + C c'(t), one column per direction
    if comp.shape[1]:
        m = _chart_jacobian(point, phi)
        moved = span + comp @ solve_lsq(m @ comp, -(m @ span))
    blocks = moved.reshape(point.p, point.dim_g, -1)
    values = np.einsum("kde,kei->ikd", phi, blocks)
    return [TangentVector.of(v) for v in values]


def transported_direction(chart: Chart, t, i: int) -> TangentVector:
    """Tangent of the i-th chart curve at parameter t: the derivative of
    retract along e_i, in the left-trivialised coordinates of TangentVector."""
    return _tangents(chart, t)[i]


def eta_coefficients(chart: Chart, phi: InvariantPolynomial, cycle: BarChain):
    """Coefficient function of the pulled-back 2-form on the chart.

    Returns ``coeffs(t) -> {(i, j): eta(sigma_i(t), sigma_j(t))}`` over i < j,
    with sigma_i(t) the chart tangents: one retraction per point."""
    tensor = symmetric_tensor(phi, chart.center.basis)

    def coeffs(t) -> dict:
        rho_t = retract(chart, t)
        tangents = _tangents(chart, t)
        ctx = EtaContext(rho_t, phi, tensor, cycle)
        return {(i, j): eta(ctx, tangents[i], tangents[j])
                for i in range(chart.dim) for j in range(i + 1, chart.dim)}

    return coeffs


def _coeff_get(c: dict, i: int, j: int):
    if i == j:
        return 0.0
    return c[(i, j)] if i < j else -c[(j, i)]


def fd_exterior_derivative(chart_dim: int, coeffs, h: float,
                           base_t=None) -> dict:
    """Richardson-extrapolated components of d(omega) for a 2-form.

    ``coeffs(t)`` returns the antisymmetric coefficient dictionary.  For each
    direction triple (i, j, k):
        (d omega)_{ijk} = d_i w_{jk} - d_j w_{ik} + d_k w_{ij},
    each partial by central differences at steps h and h/2, extrapolated.
    Reports the max modulus, the scale max |w| over evaluated points and
    ``fd_error``, the largest |d_h - d_{h/2}| over the triples (the
    Richardson error estimate of the step-h/2 value).
    """
    if base_t is None:
        base_t = np.zeros(chart_dim, dtype=np.complex128)
    base_t = np.asarray(base_t, dtype=np.complex128)

    evals: dict = {}

    def coeff_at(t):
        key = tuple(np.round(np.asarray(t, dtype=np.complex128), 14))
        if key not in evals:
            evals[key] = coeffs(np.asarray(t, dtype=np.complex128))
        return evals[key]

    def partial(i, j, k, step):
        e = np.zeros(chart_dim, dtype=np.complex128)
        e[i] = step
        cp = coeff_at(base_t + e)
        cm = coeff_at(base_t - e)
        return (_coeff_get(cp, j, k) - _coeff_get(cm, j, k)) / (2 * step)

    def d_component(i, j, k, step):
        return (partial(i, j, k, step)
                - partial(j, i, k, step)
                + partial(k, i, j, step))

    worst = fd_error = 0.0
    components = {}
    for (i, j, k) in itertools.combinations(range(chart_dim), 3):
        d_h = d_component(i, j, k, h)
        d_h2 = d_component(i, j, k, h / 2)
        extrapolated = (4 * d_h2 - d_h) / 3
        components[(i, j, k)] = extrapolated
        worst = max(worst, abs(extrapolated))
        fd_error = max(fd_error, abs(d_h - d_h2))
    scale = 0.0
    for c in evals.values():
        for v in c.values():
            scale = max(scale, abs(v))
    return {"max_d": worst, "scale": scale, "fd_error": fd_error,
            "components": components, "h": h, "evaluations": len(evals)}


def free_group_demo(p: int, group: GroupSpec, phi: InvariantPolynomial | None = None,
                    rng=None, h: float = 1e-2,
                    tol: Tolerances = DEFAULT_TOL) -> dict:
    """Chain-level 2-form on Hom(F_p, G) paired against a non-cycle chain.

    Its finite-difference exterior derivative is genuinely nonzero; paired
    against an actual 2-cycle (necessarily a boundary, H_2(F_p) = 0) the form
    evaluates to zero instead.  H^2(F_p) = 0, so the cohomology-valued
    statement is vacuously closed; this demo shows the chain-level behavior.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    if phi is None:
        phi = killing_form()
    if rng is None:
        rng = np.random.default_rng(0)
    pres = Presentation.free([chr(ord("a") + i) for i in range(p)])
    basis_dim = group.n ** 2 - (1 if group.kind == "SL" else 0)
    # random center
    from .matgroup import lie_algebra_basis
    basis = lie_algebra_basis(group)
    images = []
    for _ in range(p):
        x = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        images.append(matrix_exp(basis.matrix_from_coords(0.5 * x)))
    rho = Representation(pres, group, images, tol=tol)
    space = cocycle_space(rho, tol)
    from .forms import random_cocycle
    # dense directions so every generator slot is exercised
    rng_dirs = [random_cocycle(space, rng) for _ in range(3)]
    chart = Chart(rho, rng_dirs, tol)
    assert basis_dim == basis.dim

    a, b = Word.generator(0), Word.generator(1)
    non_cycle = BarChain.of(2, {(a, b): 1})
    tensor = symmetric_tensor(phi, basis)
    fd = fd_exterior_derivative(chart.dim,
                                eta_coefficients(chart, phi, non_cycle), h)

    # genuine 2-cycle: boundary of a 3-chain, pairs to ~0 with the cup cocycle
    from .cohomology import bar_boundary
    three = BarChain.of(3, {(a, b, a): 1, (b, a * b, b): 1})
    cycle = bar_boundary(three)
    s, t_ = rng_dirs[0], rng_dirs[1]
    cycle_value = abs(eta(EtaContext(rho, phi, tensor, cycle), s, t_))
    chain_value = abs(eta(EtaContext(rho, phi, tensor, non_cycle), s, t_))
    return {
        "check": "free-group-chain-level",
        "max_d": fd["max_d"],
        "scale": fd["scale"],
        "nonclosed": bool(fd["max_d"] > 1e-3 * fd["scale"]),
        "cycle_pairing": cycle_value,
        "chain_pairing_scale": max(chain_value, 1e-300),
        "note": "H2 of a free group vanishes, so the cohomology-valued form "
                "is vacuously closed; the chain-level 2-form is not.",
    }
