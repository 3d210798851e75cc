"""Reference implementations that the tests compare the library against.

Each one computes its result a second way, from definitions, and shares no
kernel with the path it checks: Ad rho(w) comes from explicit products
g B_a g^-1 (not ``matgroup._ad_matrix`` or the Fox walk), the polarization
tilde-Phi from evaluations of Phi (not ``invariants.symmetric_tensor``) and
the pairing with a chain from one evaluation per term (not
``forms._cycle_pairing``).  ``test_oracle_independence.py`` checks that it stays so.
"""

import itertools
import math

import numpy as np

from charforms.errors import DegreeMismatch
from charforms.invariants import evaluate


def ad_by_products(basis, left, right):
    """X -> left X right from its definition: left E_b right for every basis
    matrix E_b, read off in the basis."""
    left = np.asarray(left)[..., None, :, :]
    right = np.asarray(right)[..., None, :, :]
    return np.swapaxes(basis.coords_from_matrix(left @ basis._stack @ right), -1, -2)


def adjoint_operator(rho, w):
    """Matrix of X -> rho(w) X rho(w)^-1 in the fixed Lie-algebra basis, from
    the products of the images and of their numpy inverses along w."""
    g = g_inv = np.eye(rho.group.n, dtype=np.complex128)
    for k, s in w.letters:
        m, m_inv = rho.images[k], np.linalg.inv(rho.images[k])
        if s == -1:
            m, m_inv = m_inv, m
        g, g_inv = g @ m, m_inv @ g_inv
    return ad_by_products(rho.basis, g, g_inv)


def evaluate_groupring(rho, xi):
    """Ad rho extended linearly to an integer group-ring element."""
    out = np.zeros((rho.dim_g, rho.dim_g), dtype=np.complex128)
    for w, c in xi.terms:
        out += c * adjoint_operator(rho, w)
    return out


def polarize(phi, basis):
    """Symmetric n-linear evaluator with tilde-Phi(X,...,X) = Phi(X).

    Uses the finite polarization formula (inclusion-exclusion over nonempty
    subsets); 2^n - 1 evaluations, fine for the small degrees used here.
    """
    n = phi.degree
    fact = math.factorial(n)
    subsets = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
    signs = [(-1) ** (n - len(s)) for s in subsets]

    def evaluator(*args) -> complex:
        if len(args) != n:
            raise DegreeMismatch(f"expected {n} arguments, got {len(args)}")
        xs = [np.asarray(a, dtype=np.complex128) for a in args]
        total = 0.0 + 0.0j
        for s, sign in zip(subsets, signs):
            acc = xs[s[0]].copy()
            for i in s[1:]:
                acc = acc + xs[i]
            total += sign * evaluate(phi, basis, acc)
        return total / fact

    return evaluator


def pair(evaluator, chain):
    """Pairing sum over terms: coefficient * evaluator(*tuple)."""
    total = 0.0 + 0.0j
    for tup, c in chain.terms:
        total += c * evaluator(*tup)
    return total
