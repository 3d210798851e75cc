"""The Goldman symplectic form at a genus-2 point.

Evaluates the characteristic 2-form for the trace form tr(XY) on H^1
representatives and verifies its structure numerically: skew-symmetry,
nondegeneracy, vanishing on coboundary directions and conjugation
invariance.  Also reproduces a hand-checkable torus value.
"""

import numpy as np

from charforms import (
    GroupSpec,
    Presentation,
    Representation,
    cocycle_space,
    conjugation_invariance,
    contraction_suite,
    eta,
    gram_matrix,
    make_context,
    trace_form,
)
from charforms.matgroup import matrix_exp

SL2 = GroupSpec("SL", 2)


def main():
    pres = Presentation.surface(2)
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 1.0], [1.0, 2.0]])
    rho = Representation(pres, SL2, [a, b, b, a])
    ctx = make_context(rho, trace_form())
    space = cocycle_space(rho)

    g, rank = gram_matrix(ctx, space.h1)
    print("Gram matrix of the 2-form on H^1 representatives (real parts):")
    with np.printoptions(precision=3, suppress=True):
        print(g.real)
    print(f"rank = {rank} (dim H^1 = {space.dims[2]}), "
          f"skewness = {np.linalg.norm(g + g.T) / np.linalg.norm(g):.2e}")
    print()

    report = contraction_suite(ctx, trials=30, rng=np.random.default_rng(0))
    print("vanishing on coboundary slots (the form is basic):")
    print(f"  max deviation {report['max_dev']:.2e} at scale {report['scale']:.2f}"
          f" over {report['trials']} trials -> pass = {report['pass']}")
    print()

    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    gmat = matrix_exp(rho.basis.matrix_from_coords(x / np.linalg.norm(x)))
    dev = conjugation_invariance(ctx, gmat, trials=5, rng=rng)
    print(f"conjugation invariance deviation: {dev:.2e}")
    print()

    # torus sanity value: sigma hits the a-handle, tau the b-handle, both
    # along the diagonal direction H; the pairing is tr(H^2) = 2.  A cocycle
    # is stacked (p * dim g,): generator a's coordinates, then b's
    torus = Presentation.surface(1)
    rho_t = Representation(torus, SL2, [np.diag([2.0, 0.5]),
                                        np.diag([3.0, 1.0 / 3.0])])
    ctx_t = make_context(rho_t, trace_form())
    sigma = np.array([0, 0, 1, 0, 0, 0], dtype=complex)
    tau = np.array([0, 0, 0, 0, 0, 1], dtype=complex)
    print(f"torus hand value eta(sigma, tau) = {eta(ctx_t, sigma, tau).real:+.6f}"
          " (expected +2)")


if __name__ == "__main__":
    main()
