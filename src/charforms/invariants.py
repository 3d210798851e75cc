"""Invariant polynomials on the Lie algebra and their polarization tensors.

Built-ins: power traces tr(X^n), the trace form tr(X^2) = power_trace(2) and
the Killing form computed from structure constants of the fixed basis (so the
proportionality to the trace form on sl(n) is a checkable fact, not an input).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegreeMismatch, positive_int
from .matgroup import LieAlgebraBasis, _ad_matrix, complex_from_json, complex_to_json
from .numeric import matrix_exp, matrix_inverse

__all__ = [
    "InvariantPolynomial",
    "trace_form",
    "power_trace",
    "killing_form",
    "combination",
    "evaluate",
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
            raise ValueError(f"unknown polynomial kind {self.kind!r}")
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
        raise ValueError("power_trace degree must be >= 1")
    return InvariantPolynomial("power_trace", n)


def killing_form() -> InvariantPolynomial:
    return InvariantPolynomial("killing", 2)


def combination(terms) -> InvariantPolynomial:
    terms = tuple((complex(c), t) for c, t in terms)
    if not terms:
        raise ValueError("empty combination")
    return InvariantPolynomial("combo", terms[0][1].degree, terms)


def evaluate(phi: InvariantPolynomial, basis: LieAlgebraBasis, x) -> complex:
    """Evaluate on a coordinate vector in the fixed basis."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (basis.dim,):
        raise DegreeMismatch(
            f"coordinate vector of length {x.shape} != dim g = {basis.dim}")
    if phi.kind == "combo":
        return sum(c * evaluate(t, basis, x) for c, t in phi.terms)
    if phi.kind == "power_trace":
        m = basis.matrix_from_coords(x)
        return complex(np.trace(np.linalg.matrix_power(m, phi.degree)))
    ad = basis.ad(x)
    return complex(np.trace(ad @ ad))


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
    mats = np.stack(basis.matrices)
    n, d = phi.degree, basis.dim
    prods = mats
    for _ in range(n - 1):
        prods = np.einsum("xij,ajk->xaik", prods, mats).reshape(-1, *mats.shape[1:])
    raw = np.einsum("xii->x", prods).reshape((d,) * n)
    perms = list(itertools.permutations(range(n)))
    return sum(raw.transpose(p) for p in perms) / len(perms)


def check_invariance(phi: InvariantPolynomial, basis: LieAlgebraBasis,
                     samples: int, rng) -> float:
    """Max |Phi(Ad_g X) - Phi(X)| over random unit X and bounded random g."""
    worst = 0.0
    d = basis.dim
    for _ in range(samples):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x = x / np.linalg.norm(x)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = y / max(np.linalg.norm(y), 1.0)
        g = matrix_exp(basis.matrix_from_coords(y))
        g_inv = matrix_inverse(g)
        ad_g = _ad_matrix(basis, g, g_inv)
        dev = abs(evaluate(phi, basis, ad_g @ x) - evaluate(phi, basis, x))
        worst = max(worst, dev)
    return worst


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
    raise ValueError(f"unknown polynomial kind {kind!r}")
