"""Twisted cohomology dimensions at three kinds of points.

Computes Z^1 / B^1 / H^1 at an irreducible free-group pair, an irreducible
genus-2 surface point and a reducible diagonal torus point.  Two rank
decisions are taken, on the Fox Jacobian (Z^1) and on the coboundary map
(B^1); dim H^1 is their difference.  The rank gap printed is the smaller of
the two decisions' ratios of the smallest kept to the largest dropped
singular value.  It reads inf at all three points: every singular value
either decision dropped is exactly 0, so no rank sits near its cutoff.
"""

import numpy as np

from charforms import (
    GroupSpec,
    Presentation,
    Representation,
    cocycle_space,
    is_irreducible,
)

SL2 = GroupSpec("SL", 2)


def describe(label, rho):
    space = cocycle_space(rho)
    zi, bi, hi = space.dims
    print(f"{label}:")
    print(f"  irreducible: {is_irreducible(rho)}")
    print(f"  dim Z^1 = {zi}, dim B^1 = {bi}, dim H^1 = {hi}")
    if space.h2_dim() is not None:
        print(f"  dim H^2 = {space.h2_dim()}")
    print(f"  rank gap = {space.rank_gap:.3e}")
    print()


def main():
    # free group F_2: no relators, Z^1 is everything
    f2 = Presentation.free(["a", "b"])
    rho_free = Representation(f2, SL2, [np.diag([2.0, 0.5]),
                                        np.array([[1.0, 1.0], [1.0, 2.0]])])
    describe("F_2, irreducible SL(2) pair", rho_free)

    # genus-2 surface: doubled pair (A, B, B, A) satisfies the relator
    # exactly because [B, A] = [A, B]^-1
    g2 = Presentation.surface(2)
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 1.0], [1.0, 2.0]])
    describe("genus-2 surface, irreducible point", Representation(g2, SL2, [a, b, b, a]))

    # torus: commuting diagonals, a reducible point with H^0 and H^2
    torus = Presentation.surface(1)
    describe("torus, generic diagonal point",
             Representation(torus, SL2, [np.diag([2.0, 0.5]),
                                         np.diag([3.0, 1.0 / 3.0])]))


if __name__ == "__main__":
    main()
