"""Local charts on the representation variety and finite-difference calculus.

A chart is a Gauss-Newton retraction: perturb the center along chosen cocycle
directions via the exponential, then correct back onto the relator variety
moving only in a fixed complementary subspace of the stacked coordinates.
Because the complement is a fixed complex-linear subspace and the relator
equations are holomorphic, the retraction depends holomorphically on the
chart parameters wherever it is defined.

Exterior derivatives are measured by central differences of form coefficients
with Richardson extrapolation.  Coefficients are evaluated by re-extracting
the tangent directions at each retracted point (numerical differentiation of
the retraction curves), which keeps them smooth functions of the parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cohomology import BarChain, cocycle_space
from .errors import LeftChart
from .forms import EtaContext, eta
from .matgroup import (
    GroupSpec,
    Representation,
    TangentVector,
    find_representation,
    matrix_exp,
)
from .invariants import InvariantPolynomial, killing_form, symmetric_tensor
from .numeric import DEFAULT_TOL, Tolerances, rank_and_gap
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
    _complement: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.directions = tuple(self.directions)
        stacks = np.stack([s.stacked for s in self.directions], axis=1)
        # fixed complex-linear complement (the null space of the directions'
        # conjugate transpose); the retraction corrects only here
        self._complement = rank_and_gap(stacks.conj().T, self.tol).kernel

    @property
    def dim(self) -> int:
        return len(self.directions)


def _pushed_images(chart: Chart, t) -> list:
    rho = chart.center
    d = rho.dim_g
    t = np.asarray(t, dtype=np.complex128)
    combo = np.zeros((rho.p, d), dtype=np.complex128)
    for ti, sigma in zip(t, chart.directions):
        combo += ti * sigma.values
    return [matrix_exp(rho.basis.matrix_from_coords(combo[k])) @ rho.images[k]
            for k in range(rho.p)]


def retract(chart: Chart, t) -> Representation:
    """Map chart parameters to a point of Hom(Gamma, G).

    retract(0) is the center; for a free group the retraction is the
    exponential curve itself.  Raises LeftChart when the Gauss-Newton
    correction is larger than |t|.
    """
    rho = chart.center
    t = np.asarray(t, dtype=np.complex128)
    start = _pushed_images(chart, t)
    if not rho.presentation.relators:
        return Representation(rho.presentation, rho.group, start, tol=chart.tol)
    solved = find_representation(rho.presentation, rho.group, start,
                                 tol=chart.tol, step_basis=chart._complement)
    correction = sum(
        np.linalg.norm(a - b) for a, b in zip(solved.images, start))
    t_norm = float(np.linalg.norm(t))
    if t_norm > 0 and correction > t_norm:
        raise LeftChart(
            f"correction {correction:.3e} exceeds |t| = {t_norm:.3e}")
    return solved


def transported_direction(chart: Chart, t, i: int,
                          step: float | None = None,
                          base: Representation | None = None) -> TangentVector:
    """Tangent of the i-th retraction curve at parameter t (central difference)."""
    h = chart.tol.fd_step if step is None else step
    t = np.asarray(t, dtype=np.complex128)
    e = np.zeros_like(t)
    e[i] = h
    rho0 = retract(chart, t) if base is None else base
    plus = retract(chart, t + e)
    minus = retract(chart, t - e)
    dm = (np.array(plus.images) - np.array(minus.images)) / (2 * h)
    inverses = np.array([rho0.image(k, -1) for k in range(rho0.p)])
    return TangentVector.of(rho0.basis.coords_from_matrix(dm @ inverses))


def eta_coefficients(chart: Chart, phi: InvariantPolynomial, cycle: BarChain,
                     inner_step: float | None = None):
    """Coefficient function of the pulled-back 2-form on the chart.

    Returns ``coeffs(t) -> {(i, j): eta(sigma_i(t), sigma_j(t))}`` over i < j,
    with the directions re-extracted at the retracted point."""
    tensor = symmetric_tensor(phi, chart.center.basis)

    def coeffs(t) -> dict:
        rho_t = retract(chart, t)
        tangents = [transported_direction(chart, t, i, inner_step, base=rho_t)
                    for i in range(chart.dim)]
        ctx = EtaContext(rho_t, phi, tensor, cycle)
        out = {}
        for i in range(chart.dim):
            for j in range(i + 1, chart.dim):
                out[(i, j)] = eta(ctx, tangents[i], tangents[j])
        return out

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
    Reports the max modulus and the scale max |w| over evaluated points.
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

    worst = 0.0
    components = {}
    for (i, j, k) in itertools.combinations(range(chart_dim), 3):
        d_h = d_component(i, j, k, h)
        d_h2 = d_component(i, j, k, h / 2)
        extrapolated = (4 * d_h2 - d_h) / 3
        components[(i, j, k)] = extrapolated
        worst = max(worst, abs(extrapolated))
    scale = 0.0
    for c in evals.values():
        for v in c.values():
            scale = max(scale, abs(v))
    return {"max_d": worst, "scale": scale, "components": components,
            "h": h, "evaluations": len(evals)}


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

    def coeffs(t):
        rho_t = retract(chart, t)
        tangents = [transported_direction(chart, t, i, base=rho_t)
                    for i in range(chart.dim)]
        ctx = EtaContext(rho_t, phi, tensor, non_cycle)
        return {(i, j): eta(ctx, tangents[i], tangents[j])
                for i in range(chart.dim) for j in range(i + 1, chart.dim)}

    fd = fd_exterior_derivative(chart.dim, coeffs, h)

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
