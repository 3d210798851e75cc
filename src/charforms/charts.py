"""Local charts on the representation variety and finite-difference calculus.

The chart at a point rho with directions S (stacked cocycles) is

    rho_k(t, c) = exp(Y_k) rho_k,   Y = S t + C c,

where C is an orthonormal basis of the complement of Z^1 (the column space of
the Fox Jacobian's conjugate transpose), of dimension rank J.  The relator
equations F(t, c) = 0 are solved for c by Newton's method.  The derivative of
F in c is M C with M = (relator Jacobian at rho(t, c)) times
blockdiag_k phi(ad Y_k), where phi(ad Y) = (e^{ad Y} - 1) / ad Y is the
right-trivialised differential of exp.  M C is invertible on its image at
the center, so by the implicit-function theorem c(t) is unique and
holomorphic in t: the chart is a holomorphic map, independent of how the
solve proceeds.  The tangents come from the same theorem rather than from
differencing: c'(t) = -(M C)^+ M S, and the i-th tangent is
phi(ad Y) (S e_i + C c'_i).  At the center M = J, so c'(0) = -C^H S and the
tangents are S - C C^H S, the directions projected onto Z^1.

The FD cross-check ``fd_exterior_derivative`` (the holomorphic difference
rule ``_fd_d``) evaluates ``eta_coefficients`` one stencil point at a time:
a Newton solve (``_solve``), a tangent solve (``_tangents``) and a
``forms._pair`` per point.  ``chart_closedness`` needs none of it:
d(f* eta) = f*(d eta) reads only the 1-jet at the center, which ``_jet``
pairs exactly over the dual numbers C[eps]/eps^2, as it does a family's at
s = 0."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cohomology import BarChain, bar_boundary, cocycle_space, fox_jacobian, walk_words
from .errors import DegreeMismatch, InvalidInput, LeftChart, NoConvergence
from .forms import _cycle_pairing, _pair, eta, make_context, random_cocycle
from .matgroup import (
    GroupSpec,
    LieAlgebraBasis,
    Representation,
    _damped_newton,
    _moved,
    _Points,
    _relator_jacobian,
    _residual,
    _stacked_columns,
    _violation,
    lie_algebra_basis,
    matrix_exp,
)
from .invariants import InvariantPolynomial, killing_form, symmetric_tensor
from .numeric import DEFAULT_TOL, Tolerances, rank_and_gap, solve_lsq
from .words import Presentation, Word

__all__ = [
    "Chart",
    "eta_coefficients",
    "chart_closedness",
    "fd_exterior_derivative",
    "free_group_demo",
]


@dataclass
class Chart:
    """Center representation plus tangent directions spanning the chart,
    stacked as columns (p * dim g, dim)."""

    center: Representation
    directions: np.ndarray
    _complement: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.directions = _stacked_columns(self.center, np.array(
            self.directions, dtype=np.complex128, order="C"))
        # the orthogonal complement of Z^1 at the center; the correction c
        # lives here, so the relator equations fix it uniquely
        jac = fox_jacobian(self.center)
        self._complement = rank_and_gap(jac.conj().T, self.center.tol).image

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


def _dexp(basis: LieAlgebraBasis, y: np.ndarray) -> np.ndarray:
    """phi(ad Y_k) = (e^{ad Y_k} - 1) / ad Y_k, shape (..., p, d, d), for the
    blocks y_k of the stacked coordinates y (..., p * d).

    Read off one batched block exponential:
    exp([[ad Y, I], [0, 0]]) = [[e^{ad Y}, phi(ad Y)], [0, I]].
    """
    d = basis.dim
    ad = basis.ad(y.reshape(y.shape[:-1] + (y.shape[-1] // d, d)))
    block = np.zeros(ad.shape[:-2] + (2 * d, 2 * d), dtype=np.complex128)
    block[..., :d, :d] = ad
    block[..., :d, d:] = np.eye(d)
    return matrix_exp(block)[..., :d, d:]


def _solve(chart: Chart, t) -> tuple:
    """The chart point at t (dim,): its coordinates Y = S t + C c(t) (p * d,)
    and its ``_Points`` record.

    A t of another shape is InvalidInput.  A point that fails the solve
    (NoConvergence), ``validate`` (InvalidInput) or moves its images by more
    than |t| in the correction (LeftChart) raises, named by t.
    """
    rho, comp = chart.center, chart._complement
    t = np.asarray(t, dtype=np.complex128)
    if t.shape != (chart.dim,):
        raise InvalidInput(f"a chart point has shape ({chart.dim},), got {t.shape}")
    where = f"chart point t = {np.array2string(t, precision=4)}"

    def at(y):  # the Newton state (Y, record of exp(Y_k) rho_k) and its residual
        points = _moved(rho, y.reshape(rho.p, rho.dim_g), rho._at)
        return (y, points), _residual(points)

    def jacobian(state):  # M C
        values = _dexp(rho.basis, state[0]) @ comp.reshape(rho.p, rho.dim_g, -1)
        return _relator_jacobian(rho, state[1], values)

    start, res = at(t @ chart.directions.T)
    try:
        y, points = _damped_newton(start, res,
                                   lambda state, step: at(state[0] + step @ comp.T),
                                   jacobian, rho.tol)
    except NoConvergence as exc:
        raise NoConvergence(f"{where}: {exc}", exc.residual) from exc
    bad = _violation(rho.presentation, rho.group, points.images, points.rel,
                     rho.tol.relator_bound)
    if bad is not None:
        raise InvalidInput(f"{where}: {bad[1]}")
    pushed = start[1].images  # exp(S t) rho, before the correction
    correction = np.linalg.norm(points.images - pushed, axis=(-2, -1)).sum()
    t_norm = np.linalg.norm(t)
    if 0 < t_norm < correction:
        raise LeftChart(f"{where}: correction {correction:.3e} "
                        f"exceeds |t| = {t_norm:.3e}")
    return y, points


def _tangents(chart: Chart, phi: np.ndarray, points: _Points) -> np.ndarray:
    """Values (p, d, dim) of the exact chart tangents at one point of the
    chart, from its record and phi(ad Y) (p, d, d), for the FD cross-check:
    c'(t) = -(M C)^+ M S, and the i-th tangent is phi(ad Y)(S e_i + C c'_i)."""
    rho, span, comp = chart.center, chart.directions, chart._complement
    shape = (rho.p, rho.dim_g, -1)
    jac = _relator_jacobian(rho, points, phi @ np.hstack([span, comp]).reshape(shape))
    moved = span + comp @ solve_lsq(jac[:, chart.dim:], -jac[:, :chart.dim])
    return phi @ moved.reshape(shape)


def _pullback(chart: Chart, phi: InvariantPolynomial, cycle: BarChain) -> np.ndarray:
    """The tensor of phi in the center's basis that a chart pullback pairs;
    DegreeMismatch unless phi and the cycle have degree 2."""
    if phi.degree != 2 or cycle.degree != 2:
        raise DegreeMismatch("the chart pullback needs a degree-2 polynomial and cycle")
    return symmetric_tensor(phi, chart.center.basis)


def _alternated(p: np.ndarray) -> np.ndarray:
    """The 2-form (P - P^T) / 2 of a raw pairing P, a form off the cycles too."""
    return (p - np.swapaxes(p, -1, -2)) / 2


def eta_coefficients(chart: Chart, phi: InvariantPolynomial, cycle: BarChain):
    """Coefficient function of the pulled-back 2-form on the chart: ``coeffs(t)``
    is the ``_alternated`` pairing of the chart tangents, (dim, dim) at one
    point t (dim,), from its ``_solve``, tangent solve and ``_pair``."""
    tensor = _pullback(chart, phi, cycle)

    def coeffs(t) -> np.ndarray:
        y, points = _solve(chart, t)
        values = _tangents(chart, _dexp(chart.center.basis, y), points)
        return _alternated(_pair(points, values, cycle, tensor))

    return coeffs


def _stencil(m: int, h: float) -> np.ndarray:
    """FD points (4m, m): +-(h/2) e_k and +-(ih/2) e_k, ordered (axis k,
    direction, sign).  Empty for m < 3: no triple to check."""
    axes = np.eye(m, dtype=np.complex128)[:m if m >= 3 else 0, None]
    return (axes * (h / 2 * np.array([1, -1, 1j, -1j]))[:, None]).reshape(-1, m)


def _max_d(jet: np.ndarray) -> float:
    """max |D_ijk - D_jik + D_kij| over i < j < k of D[k, i, j] = d_k omega_ij
    (m, m, m), a ``_jet`` or a difference quotient of ``_fd_d``, NaN kept."""
    d = [jet[i, j, k] - jet[j, i, k] + jet[k, i, j]
         for i, j, k in itertools.combinations(range(len(jet)), 3)]
    return float(np.abs(d).max(initial=0.0))


def _scale(w: np.ndarray) -> float:
    """The scale max |w_ij| over i < j of 2-form coefficients w (..., m, m)."""
    return float(np.abs(np.triu(w, 1)).max(initial=0.0))


def _fd_d(w: np.ndarray, h: float) -> tuple:
    """Max |d omega|, ``fd_error`` and the Cauchy-Riemann deviation of a
    holomorphic 2-form from its coefficients w (P, m, m) on ``_stencil(m, h)``,
    of which only the upper triangles are read.

    ``max_d`` is ``_max_d`` of the partials d_k w_ij, each the mean of the
    central differences of width h along 1 and along i: the 4-point trapezoid
    rule on the circle |t_k| = h/2, whose h^2 terms cancel, leaving
    c_5 h^4 / 16.  ``fd_error`` is ``_max_d`` of their half-difference, the
    error of either width-h difference alone; the deviation is the largest
    spread of a partial d_k w_ij, k not in {i, j}, over the two directions.
    """
    m = w.shape[-1]
    w = np.triu(w, 1)
    w = (w - np.swapaxes(w, 1, 2)).reshape(len(w) // 4, 2, 2, m, m)
    partial = (w[:, :, 0] - w[:, :, 1]) / (h * np.array([1, 1j]))[:, None, None]
    diff = partial[:, 0] - partial[:, 1]  # [k, i, j]: along 1 minus along i
    k, i, j = np.indices(diff.shape)
    spread = np.abs(diff[(i < j) & (k != i) & (k != j)]).max(initial=0.0)
    return _max_d(partial.mean(axis=1)), _max_d(diff / 2), float(spread)


_CLOSED_BOUND = 1e-5


def _closed(max_d: float, scale: float, m: int, floor: float) -> bool:
    """The one closedness verdict on a chart or a family of m parameters:
    max |d omega| <= _CLOSED_BOUND * scale, both finite, m >= 3 and scale
    above the rounding floor: a vanishing form, or no triple, shows nothing."""
    return bool(m >= 3 and np.isfinite([max_d, scale]).all()
                and max_d <= _CLOSED_BOUND * scale and scale > floor)


def _floor(tensor: np.ndarray, top: dict, cycle: BarChain) -> float:
    """1e3 eps |T| sum_t |c_t| |s(h_1)| (|s(h_1)| + |s(h_2)|), s(h) in the walk
    ``top``, which bound the two slots of ``_cycle_pairing``: the rounding
    floor of |omega|, below which an isotropic chart or family, with exact
    d omega 0, would pass."""
    slots, c = cycle._slots
    s1, s2 = (np.linalg.norm([top[w][1] for w in h], axis=(1, 2)) for h in slots)
    size = np.abs(c) @ (s1 * (s1 + s2))
    return float(1e3 * np.finfo(float).eps * np.linalg.norm(tensor) * size)


def fd_exterior_derivative(chart_dim: int, coeffs, h: float) -> dict:
    """``_fd_d`` of a 2-form on a chart: its coefficient array ``coeffs(t)``,
    read above the diagonal, on ``_stencil``: max |d omega|, ``fd_error``,
    ``cauchy_riemann_dev``, the scale max |w| over the evaluated points and
    the ``_closed`` verdict as ``pass`` with its ``bound``."""
    w = np.reshape([coeffs(t) for t in _stencil(chart_dim, h)],
                   (-1, chart_dim, chart_dim))
    max_d, fd_error, cr_dev = _fd_d(w, h)
    scale = _scale(w)
    return {"max_d": max_d, "scale": scale, "fd_error": fd_error,
            "cauchy_riemann_dev": cr_dev, "h": h, "evaluations": len(w),
            "bound": _CLOSED_BOUND, "pass": _closed(max_d, scale, chart_dim, 0.0)}


def _dual(top: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The block matrices [[top, 0], [low, top]] (..., 2d, 2d): the action of
    top + eps low on (a; b) = a + eps b over the dual numbers C[eps]/eps^2."""
    d = low.shape[-1]
    out = np.zeros(low.shape[:-2] + (2 * d, 2 * d), dtype=np.complex128)
    out[..., :d, :d] = out[..., d:, d:] = top
    out[..., d:, :d] = low
    return out


def _jet(basis: LieAlgebraBasis, point: _Points, v: np.ndarray, tensor: np.ndarray,
         cycle: BarChain) -> tuple:
    """D[k, i, j] = d_k omega_ij (m, m, m), ``_alternated``, of the 2-form
    pulled back along any map with tangents v (p, d, m) at the unbatched
    ``point``, and the walk of v there.  d(f* eta) = f*(d eta) reads only the
    1-jet of f, which t -> exp(sum_k t_k v_k) rho shares: along it
    d_k v_i(x) = [v_k, v_i](x) / 2 and d_k Ad x = ad v_k(x) Ad x, which one
    ``walk_words`` table over the dual numbers carries, batched over k."""
    m, d = v.shape[-1], v.shape[-2]
    ad_v = basis.ad(np.moveaxis(v, -1, 0))  # ad v_k(x), (m, p, d, d)
    values = np.concatenate([np.broadcast_to(v, (m, *v.shape)), ad_v @ v / 2], axis=-2)
    table = walk_words(_dual(point.ad, ad_v @ point.ad),
                       _dual(point.ad_inv, -point.ad_inv @ ad_v), values, cycle.words)
    jet = _cycle_pairing(cycle, np.kron([[0, 1], [1, 0]], tensor), table)
    return _alternated(jet), {w: (a[0, :d, :d], s[0, :d]) for w, (a, s) in table.items()}


def chart_closedness(chart: Chart, phi: InvariantPolynomial, cycle: BarChain) -> dict:
    """Exact d omega at the chart's center: ``_max_d`` of ``_jet`` on the
    tangents there, S - C C^H S (no solve, no step, no exponential), scale
    max |omega(0)| and the ``_closed`` verdict above the ``_floor`` as ``pass``."""
    tensor, rho, comp = _pullback(chart, phi, cycle), chart.center, chart._complement
    s = chart.directions
    v = (s - comp @ (comp.conj().T @ s)).reshape(rho.p, rho.dim_g, -1)
    jet, top = _jet(rho.basis, rho._at, v, tensor, cycle)
    max_d = _max_d(jet)
    scale = _scale(_alternated(_cycle_pairing(cycle, tensor, top)))  # of omega(0)
    return {"max_d": max_d, "scale": scale, "bound": _CLOSED_BOUND,
            "pass": _closed(max_d, scale, chart.dim, _floor(tensor, top, cycle))}


def free_group_demo(p: int, group: GroupSpec, rng,
                    tol: Tolerances = DEFAULT_TOL) -> dict:
    """Chain-level Killing 2-form on Hom(F_p, G) against a non-cycle chain.

    Its exterior derivative is genuinely nonzero; paired
    against an actual 2-cycle (necessarily a boundary, H_2(F_p) = 0) the form
    evaluates to zero instead.  H^2(F_p) = 0, so the cohomology-valued
    statement is vacuously closed; this demo shows the chain-level behavior.
    """
    if p < 2:
        raise InvalidInput(f"the free-group demo needs p >= 2, got {p}")
    phi = killing_form()
    pres = Presentation.free([chr(ord("a") + i) for i in range(p)])
    # random center
    basis = lie_algebra_basis(group)
    images = []
    for _ in range(p):
        x = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        images.append(matrix_exp(basis.matrix_from_coords(0.5 * x)))
    rho = Representation(pres, group, images, tol=tol)
    space = cocycle_space(rho)
    # dense directions so every generator slot is exercised
    dirs = np.stack([random_cocycle(space, rng) for _ in range(3)], axis=1)
    chart = Chart(rho, dirs)

    a, b = Word.generator(0), Word.generator(1)
    non_cycle = BarChain.of(2, {(a, b): 1})
    exact = chart_closedness(chart, phi, non_cycle)

    # genuine 2-cycle: boundary of a 3-chain, pairs to ~0 with the cup cocycle
    three = BarChain.of(3, {(a, b, a): 1, (b, a * b, b): 1})
    cycle = bar_boundary(three, pres)
    s, t_ = dirs[:, 0], dirs[:, 1]
    cycle_value = abs(eta(make_context(rho, phi, cycle), s, t_))
    chain_value = abs(eta(make_context(rho, phi, non_cycle), s, t_))
    return {
        "check": "free-group-chain-level",
        "max_d": exact["max_d"],
        "scale": exact["scale"],
        "nonclosed": bool(exact["max_d"] > 1e-3 * exact["scale"]),
        "cycle_pairing": cycle_value,
        "chain_pairing_scale": max(chain_value, 1e-300),
        "note": "H2 of a free group vanishes, so the cohomology-valued form "
                "is vacuously closed; the chain-level 2-form is not.",
    }
