"""Invariant polynomials on the Lie algebra and their polarization tensors.

Built-ins: power traces tr(X^n), the trace form tr(X^2) = power_trace(2) and
the Killing form computed from structure constants of the fixed basis (so the
proportionality to the trace form on sl(n) is a checkable fact, not an input).
The library uses a polynomial only through its tensor ``symmetric_tensor``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegreeMismatch, InvalidInput, positive_int
from .matgroup import LieAlgebraBasis, _ad_matrix, complex_from_json, complex_to_json
from .numeric import matrix_exp, matrix_inverse

__all__ = [
    "InvariantPolynomial",
    "trace_form",
    "power_trace",
    "killing_form",
    "combination",
    "symmetric_tensor",
    "check_invariance",
    "polynomial_to_json",
    "polynomial_from_json",
]


@dataclass(frozen=True)
class InvariantPolynomial:
    kind: str           # "power_trace" | "killing" | "combo"
    degree: int
    terms: tuple = ()   # for "combo": tuple of (complex coeff, InvariantPolynomial)

    def __post_init__(self):
        if self.kind not in ("power_trace", "killing", "combo"):
            raise InvalidInput(f"unknown polynomial kind {self.kind!r}")
        if self.kind == "combo":
            for _, t in self.terms:
                if t.degree != self.degree:
                    raise DegreeMismatch(
                        "combination terms must share a common degree")


def trace_form() -> InvariantPolynomial:
    """tr(X^2), which is power_trace(2)."""
    return power_trace(2)


def power_trace(n: int) -> InvariantPolynomial:
    if n < 1:
        raise InvalidInput("power_trace degree must be >= 1")
    return InvariantPolynomial("power_trace", n)


def killing_form() -> InvariantPolynomial:
    return InvariantPolynomial("killing", 2)


def combination(terms) -> InvariantPolynomial:
    terms = tuple((complex(c), t) for c, t in terms)
    if not terms:
        raise InvalidInput("empty combination")
    return InvariantPolynomial("combo", terms[0][1].degree, terms)


def symmetric_tensor(phi: InvariantPolynomial, basis: LieAlgebraBasis) -> np.ndarray:
    """Coefficients of tilde-Phi in the fixed basis, shape (dim g,) * degree.

    tilde-Phi(x_1, ..., x_n) = sum T[a_1, ..., a_n] x_1[a_1] ... x_n[a_n]
    with T symmetric: the symmetrized tr(B_a1 ... B_an) for trace forms and
    power traces, tr(ad B_a ad B_b) for the Killing form.
    """
    if phi.kind == "combo":
        return sum(c * symmetric_tensor(t, basis) for c, t in phi.terms)
    if phi.kind == "killing":
        ads = basis.ad(np.eye(basis.dim))
        return np.einsum("aij,bji->ab", ads, ads)
    mats = basis.matrices
    n, d = phi.degree, basis.dim
    prods = mats
    for _ in range(n - 1):
        prods = np.einsum("xij,ajk->xaik", prods, mats).reshape(-1, *mats.shape[1:])
    raw = np.einsum("xii->x", prods).reshape((d,) * n)
    perms = list(itertools.permutations(range(n)))
    return sum(raw.transpose(p) for p in perms) / len(perms)


def check_invariance(phi: InvariantPolynomial, basis: LieAlgebraBasis,
                     samples: int, rng) -> float:
    """Max |Phi(Ad_g X) - Phi(X)| over random unit X and bounded random g,
    all samples in one stack, with Phi(X) = T[X, ..., X] read from
    ``symmetric_tensor``.  Each sample draws X re, X im, g re, g im in turn."""
    z = rng.standard_normal((samples, 4, basis.dim))
    x, y = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
    x = x / np.linalg.norm(x, axis=-1, keepdims=True)
    y = y / np.maximum(np.linalg.norm(y, axis=-1, keepdims=True), 1.0)
    g = matrix_exp(basis.matrix_from_coords(y))
    moved = (_ad_matrix(basis, g, matrix_inverse(g)) @ x[..., None])[..., 0]
    columns = np.concatenate([x, moved]).T  # (d, 2 samples)
    v = symmetric_tensor(phi, basis)[..., None]
    for _ in range(phi.degree):  # contract the last slot of T with each column
        v = np.einsum("...am,am->...m", v, columns)
    return float(np.abs(v[samples:] - v[:samples]).max(initial=0.0))


def polynomial_to_json(phi: InvariantPolynomial) -> dict:
    if phi.kind == "combo":
        return {"kind": "combo",
                "terms": [{"coeff": complex_to_json(c), **polynomial_to_json(t)}
                          for c, t in phi.terms]}
    if phi.kind == "power_trace":
        return {"kind": "power_trace", "n": phi.degree}
    return {"kind": phi.kind}


def polynomial_from_json(data: dict) -> InvariantPolynomial:
    kind = data["kind"]
    if kind == "trace_form":
        return trace_form()
    if kind == "killing":
        return killing_form()
    if kind == "power_trace":
        return power_trace(positive_int(data["n"], "power_trace 'n'"))
    if kind == "combo":
        return combination([
            (complex_from_json(t["coeff"], 0, "a 'phi' combo 'coeff'"),
             polynomial_from_json({k: v for k, v in t.items() if k != "coeff"}))
            for t in data["terms"]])
    raise InvalidInput(f"unknown polynomial kind {kind!r}")
