"""Characteristic n-forms at a representation: cup products of 1-cocycles
weighted by a polarized invariant polynomial, paired against a bar n-cycle.

For degree 2 and a surface group this is the Goldman symplectic form.  The
module also hosts the structural checks: vanishing on coboundaries (the form
descends to the conjugation quotient), skew-symmetry, nondegeneracy on H^1,
conjugation invariance and pullback along group endomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import BarChain, cocycle_space, fundamental_two_cycle, walk_words
from .errors import DegreeMismatch, InvalidInput, NotEndomorphism
from .matgroup import (
    Representation,
    _ad_matrix,
    _points,
    _Points,
    _stacked_columns,
    _violation,
    coboundary,
    evaluate_word,
    matrix_inverse,
)
from .invariants import InvariantPolynomial, symmetric_tensor
from .numeric import rank_and_gap

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
    """sum_t c_t tilde-Phi(s(h_1) - s(h_0), ..., s(h_n) - s(h_n-1)) over the
    terms of a degree-n chain, h_i their partial products (``BarChain.words``,
    h_0 = e), tilde-Phi = tensor, from the ``walk_words`` table of k cocycles:
    (..., k, ..., k), batched over its leading axes.  By the walk's rule
    s(uv) = s(u) + Ad(u) s(v), slot i is Ad(g_1..g_i-1) s(g_i) for any values,
    dual numbers included; each slot is one product over all terms.  Raises
    DegreeMismatch unless tensor.ndim == cycle.degree, and InvalidInput on
    the zero chain, whose table cannot give the shape of a zero value."""
    n = tensor.ndim
    if n != cycle.degree:
        raise DegreeMismatch(f"the pairing needs a degree-{cycle.degree} tensor, "
                             f"not degree {n}")
    if not cycle.terms:
        raise InvalidInput(f"cannot pair with the zero {n}-chain")
    slots, c = cycle._slots
    first = np.stack([np.swapaxes(table[w][1], -1, -2) for w in slots[0]], axis=-2)
    (k, terms, d), batch = first.shape[-3:], first.shape[:-3]  # first (..., k, T, d)
    acc, prev = first.reshape(-1, d) @ tensor.reshape(d, -1), np.moveaxis(first, -3, -1)
    for i, h in enumerate(slots[1:-1], 1):  # acc (..., k^i, T, d^(n-i)) after slot i
        cur = np.stack([table[w][1] for w in h], axis=-3)  # (..., T, d, k)
        step, prev = np.swapaxes(cur - prev, -1, -2)[..., None, :, :, :], cur
        acc = step @ acc.reshape(batch + (k ** i, terms, d, d ** (n - 1 - i)))
        acc = np.swapaxes(acc, -3, -2)
    if n == 1:
        return acc.reshape(batch + (k, terms)) @ c
    last = np.stack([table[w][1] for w in slots[-1]], axis=-3, dtype=complex)
    last -= prev
    last *= c[:, None, None]  # the sum over the terms joins the last product
    total = (acc.reshape(batch + (k ** (n - 1), terms * d))
             @ last.reshape(batch + (terms * d, k)))
    return total.reshape(batch + (k,) * n)


def _pair(point: _Points, values: np.ndarray, cycle: BarChain,
          tensor: np.ndarray) -> np.ndarray:
    """The one pairing of k cocycles at a ``_Points`` record: ``_cycle_pairing``
    (..., k, ..., k) of the ``walk_words`` table of ``cycle.words`` on their
    generator values (..., p, d, k)."""
    return _cycle_pairing(cycle, tensor,
                          walk_words(point.ad, point.ad_inv, values, cycle.words))


@dataclass(frozen=True, eq=False)
class EtaContext:
    """A form at rho: the cycle to pair against and the coefficient tensor
    of tilde-Phi (``invariants.symmetric_tensor`` of ``phi`` in rho's basis).
    Each ``eta`` or ``gram_matrix`` call walks the cycle words on the values
    it pairs, ``_pair``; the context keeps no table."""

    rho: Representation
    phi: InvariantPolynomial
    tensor: np.ndarray
    cycle: BarChain

    @property
    def degree(self) -> int:
        return self.phi.degree


def _paired(ctx: EtaContext, stacked: np.ndarray) -> np.ndarray:
    """The cycle pairing (..., k, ..., k) of k stacked cocycles S (..., p dim
    g, k), ``_stacked_columns``: ``_pair`` at rho of their generator values."""
    rho, stacked = ctx.rho, _stacked_columns(ctx.rho, stacked)
    values = stacked.reshape(stacked.shape[:-2] + (rho.p, rho.dim_g, -1))
    return _pair(rho._at, values, ctx.cycle, ctx.tensor)


def make_context(rho: Representation, phi: InvariantPolynomial,
                 cycle: BarChain | None = None) -> EtaContext:
    """Build a context; a degree-2 surface presentation gets its fundamental
    cycle automatically."""
    if cycle is None:
        if phi.degree != 2:
            raise DegreeMismatch("automatic cycle only available in degree 2; supply one")
        cycle = fundamental_two_cycle(rho.presentation)
    if cycle.degree != phi.degree:
        raise DegreeMismatch(
            f"cycle degree {cycle.degree} != polynomial degree {phi.degree}")
    return EtaContext(rho, phi, symmetric_tensor(phi, rho.basis), cycle)


def eta(ctx: EtaContext, *sigmas) -> complex:
    """Pairing of the cup product of the cocycles, each stacked (p dim g,),
    weighted by tilde-Phi, with the cycle:
    sum_t c_t tilde-Phi(s_1(g_1), ..., Ad(g_1..g_n-1) s_n(g_n)),
    the diagonal entry of ``_paired`` on S = (s_1, ..., s_n)."""
    n = ctx.degree
    if len(sigmas) != n:
        raise DegreeMismatch(f"expected {n} cocycles, got {len(sigmas)}")
    return complex(_paired(ctx, np.stack(sigmas, axis=1))[tuple(range(n))])


def _draws(space, rng, k: int) -> np.ndarray:
    """k random complex combinations of the Z^1 basis, stacked (p dim g, k).
    Raises InvalidInput for k < 1, as a suite of no trials shows nothing."""
    if k < 1:
        raise InvalidInput(f"need at least one random cocycle, got {k}")
    m = space.z1.shape[1]
    c = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    return space.z1 @ c


def random_cocycle(space, rng) -> np.ndarray:
    """Random complex combination of the Z^1 basis, stacked (p dim g,)."""
    return _draws(space, rng, 1)[:, 0]


def contraction_suite(ctx: EtaContext, trials: int, rng) -> dict:
    """Max |eta| with a coboundary in the first slot, over random trials.

    The form is basic for the conjugation action, so the report should show a
    deviation below 1e-9 times the scale (the max |eta| over the same trial
    cocycles), and the scale must be positive: a form that vanishes shows
    nothing.  All trials are paired at once, each on its own leading index
    with the columns (dB, s_2, ..., s_n, s_1)."""
    n, d = ctx.degree, ctx.rho.dim_g
    draws = _draws(cocycle_space(ctx.rho), rng, n * trials)
    v = rng.standard_normal((d, trials)) + 1j * rng.standard_normal((d, trials))
    stack = np.concatenate([coboundary(ctx.rho, v).T[..., None],
                            draws.reshape(-1, trials, n).swapaxes(0, 1)], axis=-1)
    pairs = np.abs(_paired(ctx, stack))
    rest = tuple(range(1, n))
    worst = float(pairs[(slice(None), 0) + rest].max())
    scale = float(pairs[(slice(None), n) + rest].max())
    bound = 1e-9  # of max_dev, relative to the scale
    return {"check": "contraction", "max_dev": worst, "scale": scale, "bound": bound,
            "pass": bool(worst <= bound * scale > 0), "trials": trials}


def gram_matrix(ctx: EtaContext, basis: np.ndarray):
    """Matrix G_ij = eta(s_i, s_j), ``_paired`` on S = basis, and its SVD rank
    at the point's tolerance (degree 2).  The basis is stacked as columns
    (p dim g, k), such as ``CocycleSpace.h1``."""
    if ctx.degree != 2:
        raise DegreeMismatch("gram_matrix requires a degree-2 context")
    g = _paired(ctx, basis)
    return g, rank_and_gap(g, ctx.rho.tol).rank


def conjugation_invariance(ctx: EtaContext, g, trials: int, rng) -> float:
    """Max |eta_{g rho g^-1}(Ad_g s, Ad_g t) - eta_rho(s, t)| over random
    cocycle pairs."""
    s = _draws(cocycle_space(ctx.rho), rng, 2 * trials)
    return _conjugation_pairs(ctx, np.asarray(g)[None], s[None])[0]


def _conjugation_pairs(ctx: EtaContext, g, s):
    """``conjugation_invariance`` over a stack of g (G, n, n), each on its own
    draws s (G, p dim g, 2T) made unit and paired as (s_i, s_{T+i}), and the
    max |eta_rho(s, t)| over them, the scale that shows the form is not zero.
    All g rho g^-1, the products, are checked as one record and paired in
    one walk of the cycle words on the values Ad_g s."""
    if ctx.degree != 2:
        raise DegreeMismatch("conjugation_invariance requires degree 2")
    rho, g = ctx.rho, np.asarray(g, dtype=np.complex128)
    g_inv = matrix_inverse(g, rho.tol)
    images = g[:, None] @ rho._at.images @ g_inv[:, None]
    conj = _points(rho.presentation, rho.basis, images, matrix_inverse(images, rho.tol))
    bad = _violation(rho.presentation, rho.group, conj.images, conj.rel,
                     rho.tol.relator_bound)
    if bad is not None:
        raise InvalidInput(bad[1])
    s = s / np.linalg.norm(s, axis=-2, keepdims=True)
    ad_g = _ad_matrix(rho.basis, g, g_inv)[:, None]
    s_c = ad_g @ s.reshape(len(g), rho.p, rho.dim_g, -1)
    base, back = (np.diagonal(pairs, s.shape[-1] // 2, -2, -1) for pairs in (
        _paired(ctx, s), _pair(conj, s_c, ctx.cycle, ctx.tensor)))
    return float(np.abs(back - base).max()), float(np.abs(base).max())


def endomorphism_pullback(ctx: EtaContext, images, rng, trials: int = 5):
    """Pull the context back along the endomorphism x_k -> images[k].

    Checks numerically, at rho's own tolerance, that every relator maps to a
    word acting trivially at rho, and raises NotEndomorphism with the
    residual otherwise.  Returns the pulled-back context together with a
    report comparing eta at rho∘phi on pulled-back cocycles against eta at rho.
    """
    if ctx.degree != 2:
        raise DegreeMismatch("endomorphism_pullback requires degree 2")
    rho = ctx.rho
    images = tuple(images)
    if len(images) != rho.p:
        raise NotEndomorphism("need one image word per generator")
    try:
        rho_new = Representation(rho.presentation, rho.group,
                                 [evaluate_word(rho, w) for w in images], tol=rho.tol)
    except InvalidInput as exc:
        raise NotEndomorphism(f"a relator maps to a nontrivial word: {exc}") from exc
    ctx_new = EtaContext(rho_new, ctx.phi, ctx.tensor, ctx.cycle)
    s = _draws(cocycle_space(rho), rng, 2 * trials).reshape(rho.p, rho.dim_g, -1)
    # (phi* sigma)(x_k) = sigma(phi(x_k)): every cocycle in one walk; the
    # trial pairs are (s_i, s_{T+i}), paired once at each point
    table = walk_words(rho._at.ad, rho._at.ad_inv, s, images)
    pulled = np.stack([table[w][1] for w in images])
    base, back = (np.diagonal(_pair(point, values, ctx.cycle, ctx.tensor), trials)
                  for point, values in ((rho._at, s), (rho_new._at, pulled)))
    ratios = [complex(b / a) for a, b in zip(base, back) if abs(a) > 1e-12]
    report = {
        "ratios": ratios,
        "ratio": complex(np.mean(ratios)) if ratios else None,
        "pairs": trials,
    }
    return ctx_new, report
