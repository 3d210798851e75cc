"""Characteristic n-forms at a representation: cup products of 1-cocycles
weighted by a polarized invariant polynomial, paired against a bar n-cycle.

For degree 2 and a surface group this is the Goldman symplectic form.  The
module also hosts the structural checks: vanishing on coboundaries (the form
descends to the conjugation quotient), skew-symmetry, nondegeneracy on H^1,
conjugation invariance and pullback along group endomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cohomology import (
    BarChain,
    cocycle_space,
    extend_cocycle,
    fundamental_two_cycle,
    identity_values,
    walk_words,
)
from .errors import DegreeMismatch, NotEndomorphism
from .matgroup import (
    Representation,
    TangentVector,
    _ad_matrix,
    coboundary,
    conjugate_representation,
    evaluate_word,
    matrix_inverse,
)
from .invariants import InvariantPolynomial, symmetric_tensor
from .numeric import rank_and_gap
from .words import Word

__all__ = [
    "EtaContext",
    "make_context",
    "eta",
    "contraction_suite",
    "gram_matrix",
    "conjugation_invariance",
    "endomorphism_pullback",
    "random_cocycle",
]


def _cycle_pairing(cycle: BarChain, tensor: np.ndarray, table: dict):
    """sum_t c_t sigma(g_1)^T K Ad(g_1) sigma(g_2) over the terms [g_1|g_2]
    of a degree-2 cycle, K = tensor, from the ``walk_words`` table of k
    cocycles: (..., k, k), batched over the table's leading axes.

    Raises DegreeMismatch unless the cycle has degree 2 and K is a matrix."""
    if cycle.degree != 2 or tensor.ndim != 2:
        raise DegreeMismatch(f"the pairing needs a degree-2 cycle and tensor, "
                             f"not {cycle.degree} and {tensor.ndim}")
    total = 0.0
    for (g1, g2), c in cycle.terms:
        ad1, s1 = table[g1]
        total = total + c * (np.swapaxes(s1, -1, -2) @ tensor @ ad1 @ table[g2][1])
    return total


@dataclass(frozen=True, eq=False)
class EtaContext:
    """A form at rho: the cycle to pair against and the coefficient tensor
    of tilde-Phi (``invariants.symmetric_tensor`` of ``phi`` in rho's basis).

    The ``walk_words`` table (Ad rho(w), J_w) of the cycle words and, in
    degree 2, the matrix Omega are built on first use and kept.
    """

    rho: Representation
    phi: InvariantPolynomial
    tensor: np.ndarray
    cycle: BarChain

    @property
    def degree(self) -> int:
        return self.phi.degree

    @cached_property
    def table(self) -> dict:
        return walk_words(*self.rho._generator_ad(), identity_values(self.rho),
                          [w for gammas, _ in self.cycle.terms for w in gammas])

    @cached_property
    def omega(self) -> np.ndarray:
        """Degree 2: eta(s, t) = s.stacked @ omega @ t.stacked, the cycle
        pairing of the identity values, sum_t c_t J_{g_1}^T K Ad(g_1) J_{g_2}."""
        return _cycle_pairing(self.cycle, self.tensor, self.table)


def make_context(rho: Representation, phi: InvariantPolynomial,
                 cycle: BarChain | None = None) -> EtaContext:
    """Build a context; a degree-2 surface presentation gets its fundamental
    cycle automatically."""
    if cycle is None:
        if phi.degree != 2:
            raise DegreeMismatch(
                "automatic cycle only available in degree 2; supply one")
        cycle = fundamental_two_cycle(rho.presentation).chain
    if cycle.degree != phi.degree:
        raise DegreeMismatch(
            f"cycle degree {cycle.degree} != polynomial degree {phi.degree}")
    return EtaContext(rho, phi, symmetric_tensor(phi, rho.basis), cycle)


_INDICES = "abcdefghijklmnopqrs"


def eta(ctx: EtaContext, *sigmas: TangentVector) -> complex:
    """Pairing of the cup product of the cocycles, weighted by tilde-Phi,
    with the cycle: sum_t c_t tilde-Phi(s_1(g_1), ..., Ad(g_1..g_n-1) s_n(g_n))."""
    n = ctx.degree
    if len(sigmas) != n:
        raise DegreeMismatch(f"expected {n} cocycles, got {len(sigmas)}")
    if n == 2:
        return complex(sigmas[0].stacked @ ctx.omega @ sigmas[1].stacked)
    spec = _INDICES[:n] + "," + ",".join(_INDICES[:n]) + "->"
    total = 0.0 + 0.0j
    for gammas, c in ctx.cycle.terms:
        acc, args = np.eye(ctx.rho.dim_g), []
        for w, s in zip(gammas, sigmas):
            args.append(acc @ (ctx.table[w][1] @ s.stacked))
            acc = acc @ ctx.table[w][0]
        total += c * np.einsum(spec, ctx.tensor, *args)
    return complex(total)


def random_cocycle(space, rng) -> TangentVector:
    """Random complex combination of a cocycle-space basis."""
    basis = space.basis_z1
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    acc = c[0] * basis[0]
    for i in range(1, len(basis)):
        acc = acc + c[i] * basis[i]
    return acc


def contraction_suite(ctx: EtaContext, trials: int, rng) -> dict:
    """Max |eta| with a coboundary in the first slot, over random trials.

    The form is basic for the conjugation action, so the report should show a
    deviation below 1e-9 times the scale (the max |eta| over the same trial
    cocycles)."""
    space = cocycle_space(ctx.rho)
    n = ctx.degree
    d = ctx.rho.dim_g
    worst = 0.0
    scale = 0.0
    for _ in range(trials):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        db = coboundary(ctx.rho, v)
        rest = [random_cocycle(space, rng) for _ in range(n - 1)]
        extra = random_cocycle(space, rng)
        worst = max(worst, abs(eta(ctx, db, *rest)))
        scale = max(scale, abs(eta(ctx, extra, *rest)))
    passed = worst <= 1e-9 * scale if scale > 0 else worst == 0.0
    return {"check": "contraction", "max_dev": worst, "scale": scale,
            "pass": bool(passed), "trials": trials}


def gram_matrix(ctx: EtaContext, basis):
    """Matrix G_ij = eta(s_i, s_j) = H^T Omega H and its SVD rank at the
    point's tolerance (degree 2)."""
    if ctx.degree != 2:
        raise DegreeMismatch("gram_matrix requires a degree-2 context")
    h = np.zeros((ctx.omega.shape[0], len(basis)), dtype=np.complex128)
    for j, s in enumerate(basis):
        h[:, j] = s.stacked
    g = h.T @ ctx.omega @ h
    return g, rank_and_gap(g, ctx.rho.tol).rank


def conjugation_invariance(ctx: EtaContext, g, trials: int, rng) -> float:
    """Max |eta_{g rho g^-1}(Ad_g s, Ad_g t) - eta_rho(s, t)| over random
    cocycle pairs."""
    if ctx.degree != 2:
        raise DegreeMismatch("conjugation_invariance requires degree 2")
    rho = ctx.rho
    rho_c = conjugate_representation(rho, g)
    ad_g = _ad_matrix(rho.basis, np.asarray(g, dtype=np.complex128),
                      matrix_inverse(np.asarray(g, dtype=np.complex128), rho.tol))
    ctx_c = EtaContext(rho_c, ctx.phi, ctx.tensor, ctx.cycle)
    space = cocycle_space(rho)
    worst = 0.0
    for _ in range(trials):
        s = random_cocycle(space, rng)
        t = random_cocycle(space, rng)
        s = (1.0 / np.linalg.norm(s.stacked)) * s
        t = (1.0 / np.linalg.norm(t.stacked)) * t
        s_c = TangentVector.of(s.values @ ad_g.T)
        t_c = TangentVector.of(t.values @ ad_g.T)
        dev = abs(eta(ctx_c, s_c, t_c) - eta(ctx, s, t))
        worst = max(worst, dev)
    return worst


def pullback_cocycle(ctx: EtaContext, images: tuple, sigma: TangentVector) -> TangentVector:
    """(phi* sigma)(x_k) = sigma(phi(x_k)) via the cocycle extension."""
    ext = extend_cocycle(ctx.rho, sigma)
    return TangentVector.of(np.stack([ext(w) for w in images]))


def endomorphism_pullback(ctx: EtaContext, images, rng, trials: int = 5):
    """Pull the context back along the endomorphism x_k -> images[k].

    Checks numerically that every relator maps to a word acting trivially at
    rho.  Returns the pulled-back context together with a report comparing
    eta at rho∘phi on pulled-back cocycles against eta at rho.
    """
    rho = ctx.rho
    images = tuple(images)
    if len(images) != rho.p:
        raise NotEndomorphism("need one image word per generator")
    n_mat = rho.group.n
    for r in rho.presentation.relators:
        mapped = Word.identity()
        for g, s in r.letters:
            w = images[g] if s == 1 else images[g].inverse()
            mapped = mapped * w
        res = np.linalg.norm(evaluate_word(rho, mapped) - np.eye(n_mat))
        if res > 1e-8:
            raise NotEndomorphism(
                f"relator maps to a word with residual {res:.3e} at rho")
    new_images = [evaluate_word(rho, w) for w in images]
    rho_new = Representation(rho.presentation, rho.group, new_images, tol=rho.tol)
    ctx_new = EtaContext(rho_new, ctx.phi, ctx.tensor, ctx.cycle)
    space = cocycle_space(rho)
    ratios = []
    for _ in range(trials):
        s, t = random_cocycle(space, rng), random_cocycle(space, rng)
        base = eta(ctx, s, t)
        pulled = eta(ctx_new, pullback_cocycle(ctx, images, s),
                     pullback_cocycle(ctx, images, t))
        if abs(base) > 1e-12:
            ratios.append(pulled / base)
    report = {
        "ratios": ratios,
        "ratio": complex(np.mean(ratios)) if ratios else None,
        "pairs": trials,
    }
    return ctx_new, report
