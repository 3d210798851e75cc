"""Reference implementations that the tests compare the library against.

Each one computes its result a second way, from definitions, and shares no
kernel with the path it checks: Ad rho(w) comes from explicit products
g B_a g^-1 (not ``matgroup._ad_matrix`` or the Fox walk), a cocycle's value
on a word from exact Fox derivatives (not ``cohomology.walk_words``), Phi
from matrix powers and the polarization tilde-Phi from evaluations of Phi
(not ``invariants.symmetric_tensor``) and the pairing with a chain from one
evaluation per term, with the Ad products of each term (not
``forms._cycle_pairing``).
``test_oracle_independence.py`` checks that it stays so.
"""

import itertools
import math

import numpy as np
import sympy

from charforms.errors import DegreeMismatch
from charforms.families import Poly
from charforms.matgroup import Representation, lie_algebra_basis
from charforms.words import fox_derivative


def ad_by_products(basis, left, right):
    """X -> left X right from its definition: left E_b right for every basis
    matrix E_b, read off in the basis."""
    left = np.asarray(left)[..., None, :, :]
    right = np.asarray(right)[..., None, :, :]
    return np.swapaxes(basis.coords_from_matrix(left @ basis.matrices @ right), -1, -2)


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


def conjugate_representation(rho, g):
    """The point g rho g^-1: each image conjugated by g and its numpy inverse."""
    g = np.asarray(g, dtype=np.complex128)
    g_inv = np.linalg.inv(g)
    return Representation(rho.presentation, rho.group,
                          [g @ m @ g_inv for m in rho.images], tol=rho.tol)


def exact_dims(presentation, group, images):
    """(dim Z^1, dim B^1, dim H^1) of Gamma with coefficients in Ad rho, over
    Q: the images are exact rational matrices (entries int, Fraction or
    sympy.Rational) satisfying the relators exactly.  Ad rho(w) X is read
    off the explicit product rho(w) E_b rho(w)^-1 for every basis matrix
    E_b, the Fox Jacobian is built block by block from ``fox_derivative``,
    and sympy's ``Matrix.rank`` decides both ranks:
    dim Z^1 = p dim g - rank J, dim B^1 = rank of v -> (v - Ad rho(x_k) v)_k.
    """
    flat = sympy.Matrix([[int(x.real) for x in e.ravel()]
                         for e in lie_algebra_basis(group).matrices]).T
    coords = (flat.T * flat).inv() * flat.T  # vec(X) -> coordinates of X in g
    mats = [sympy.Matrix(m).applyfunc(sympy.Rational) for m in images]
    invs = [m.inv() for m in mats]
    d, p = flat.shape[1], presentation.p

    def ad(g, g_inv):
        return coords * sympy.Matrix.hstack(*(
            (g * flat[:, b].reshape(group.n, group.n) * g_inv).reshape(group.n ** 2, 1)
            for b in range(d)))

    def ad_word(w):
        g = g_inv = sympy.eye(group.n)
        for k, s in w.letters:
            m, m_inv = (mats[k], invs[k]) if s == 1 else (invs[k], mats[k])
            g, g_inv = g * m, m_inv * g_inv
        return ad(g, g_inv)

    def ad_sum(xi):
        return sum((c * ad_word(w) for w, c in xi.terms), sympy.zeros(d, d))

    jac = sympy.Matrix.vstack(sympy.zeros(0, p * d), *(
        sympy.Matrix.hstack(*(ad_sum(fox_derivative(r, k)) for k in range(p)))
        for r in presentation.relators))
    cob = sympy.Matrix.vstack(*(sympy.eye(d) - ad(mats[k], invs[k]) for k in range(p)))
    z1, b1 = p * d - jac.rank(), cob.rank()
    return z1, b1, z1 - b1


def evaluate_groupring(rho, xi):
    """Ad rho extended linearly to an integer group-ring element."""
    out = np.zeros((rho.dim_g, rho.dim_g), dtype=np.complex128)
    for w, c in xi.terms:
        out += c * adjoint_operator(rho, w)
    return out


def fox_blocks(rho, w):
    """Ad-evaluated exact Fox derivatives of w, term by term: the blocks
    (dim g, dim g) of J_w, one per generator."""
    return [evaluate_groupring(rho, fox_derivative(w, k)) for k in range(rho.p)]


def evaluate(phi, basis, x) -> complex:
    """Phi on a coordinate vector in the fixed basis: tr(X^n) from a matrix
    power, tr(ad X ad X) for the Killing form, linear in a combination."""
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


def diff(poly, k):
    """The exact partial derivative d/ds_k of a ``Poly``, monomial by monomial."""
    acc = {}
    for p, c in poly.coeffs.items():
        if p[k] > 0:
            q = list(p)
            q[k] -= 1
            acc[tuple(q)] = c * p[k]
    return Poly(poly.nvars, acc)


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


def cup_cocycle(ctx, *sigmas):
    """The degree-n cup product of the cocycles sigmas (stacked (p dim g,))
    on a bar tuple: (g_1..g_n) -> tilde-Phi(s_1(g_1), Ad(g_1) s_2(g_2), ...,
    Ad(g_1...g_n-1) s_n(g_n)), each s_i(g) = J_g s_i from ``fox_blocks``,
    Ad from ``adjoint_operator`` and tilde-Phi from ``polarize``."""
    rho = ctx.rho
    phi_pol = polarize(ctx.phi, rho.basis)

    def evaluator(*gammas):
        args = []
        acc = np.eye(rho.dim_g, dtype=complex)
        for sigma, g in zip(sigmas, gammas):
            args.append(acc @ np.concatenate(fox_blocks(rho, g), axis=1) @ sigma)
            acc = acc @ adjoint_operator(rho, g)
        # polarize unit vectors and scale back (multilinearity): polarizing
        # arguments of very different norms cancels away their digits
        norms = [np.linalg.norm(a) or 1.0 for a in args]
        return np.prod(norms) * phi_pol(*(a / r for a, r in zip(args, norms)))

    return evaluator


def reference_eta(ctx, *sigmas):
    """The pairing of ``cup_cocycle`` with the context's chain, term by term,
    and the sum of the moduli of its terms (the scale that rounding errors
    are relative to)."""
    ev = cup_cocycle(ctx, *sigmas)
    scale = sum(abs(c * ev(*tup)) for tup, c in ctx.cycle.terms)
    return pair(ev, ctx.cycle), scale


def ad_product_pairing(rho, values, tensor, chain):
    """sum_t c_t T(s(g_1), Ad(g_1) s(g_2), ..., Ad(g_1...g_n-1) s(g_n)) over
    the terms [g_1|...|g_n] of any bar chain, term by term, for k columns of
    generator values (p, d, k) at rho that need not be cocycles: s(g) is
    J_g applied to them (``fox_blocks``), Ad(g) is ``adjoint_operator`` and
    T = tensor (d, ..., d) takes slot i on its i-th axis.  Returns the
    pairing (k, ..., k), entry [a_1, ..., a_n] from column a_i in slot i,
    and the sum over the terms of |c_t| |T| prod_i |slot i|, the scale that
    rounding errors are relative to."""
    flat = np.asarray(values).reshape(-1, values.shape[-1])
    total, scale = 0, 0.0
    for gammas, c in chain.terms:
        acc, term = np.eye(rho.dim_g, dtype=complex), tensor
        size = np.linalg.norm(tensor)
        for g in gammas:
            slot = acc @ np.concatenate(fox_blocks(rho, g), axis=1) @ flat
            term = np.tensordot(term, slot, axes=([0], [0]))  # its axis joins the end
            size *= np.linalg.norm(slot)
            acc = acc @ adjoint_operator(rho, g)
        total, scale = total + c * term, scale + abs(c) * size
    return total, scale
