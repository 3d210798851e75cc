import numpy as np
import pytest

from charforms import GroupSpec, Presentation, Representation, cocycle_space
from charforms.families import FamilySpec, Poly
from charforms.numeric import matrix_exp

SL2 = GroupSpec("SL", 2)
GL2 = GroupSpec("GL", 2)


def random_point(genus, seed, kind="SL", n=2, free=0):
    """Seeded point: exponentials of complex Lie-algebra elements of size 0.3.

    A surface point repeats (A, B, B, A) per pair of handles and closes an
    odd genus with (C, C^2), so the relator holds to rounding; ``free`` > 0
    gives that many independent images on the free group instead.
    """
    rng = np.random.default_rng(seed)

    def draw():
        x = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if kind == "SL":
            x -= (np.trace(x) / n) * np.eye(n)
        return matrix_exp(x)

    group = GroupSpec(kind, n)
    if free:
        names = [chr(ord("a") + i) for i in range(free)]
        return Representation(Presentation.free(names), group,
                              [draw() for _ in names]), rng
    a, b, c = draw(), draw(), draw()
    images = []
    for _ in range(genus // 2):
        images += [a, b, b, a]
    if genus % 2:
        images += [c, c @ c]
    return Representation(Presentation.surface(genus), group, images), rng


def h0_dim(rho):
    """dim H^0(Gamma, Ad rho) = dim g - dim B^1, B^1 the coboundary image."""
    return rho.dim_g - cocycle_space(rho).dims[1]


@pytest.fixture(scope="session")
def torus_rep():
    """Generic diagonal point on the torus: commuting hyperbolics."""
    pres = Presentation.surface(1)
    return Representation(pres, SL2, [np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])])


@pytest.fixture(scope="session")
def genus2_rep():
    """Irreducible genus-2 point: the doubled pair (A, B, B, A).

    [B, A] = [A, B]^-1, so the surface relator holds exactly in floating
    point; A and B share no eigenvector, making the point irreducible.
    """
    pres = Presentation.surface(2)
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 1.0], [1.0, 2.0]])
    return Representation(pres, SL2, [a, b, b, a])


@pytest.fixture(scope="session")
def f2_rep():
    """Irreducible pair of SL(2) matrices on the free group F_2."""
    pres = Presentation.free(["a", "b"])
    a = np.diag([2.0, 0.5])
    b = np.array([[1.0, 1.0], [1.0, 2.0]])
    return Representation(pres, SL2, [a, b])


def diagonal_family():
    """Three-parameter genus-2 family of commuting diagonal GL(2) images.

    Commuting images satisfy the product-of-commutators relator identically,
    so the family is exactly polynomial with zero relator residual, while the
    pulled-back 2-form has nonconstant coefficients of order-one size.
    """
    pres = Presentation.surface(2)
    m = 3
    s1, s2, s3 = (Poly.var(m, k) for k in range(m))
    c = lambda v: Poly.const(m, v)
    zero = Poly(m)

    def diag(p, q):
        return [[p, zero], [zero, q]]

    images = {
        "a1": diag(c(2.0) + s1, c(0.5) + s2 + s3 * s3),
        "b1": diag(c(3.0) + s2 + s1 * s3, c(1.0 / 3.0) + s1),
        "a2": diag(c(1.0) + s3, c(1.0) - s3 + s1 * s1),
        "b2": diag(c(1.0) + s1 - s3, c(2.0) + s2 * s3),
    }
    return FamilySpec(pres, GL2, ("s1", "s2", "s3"), (0.2, 0.2, 0.2), images)


@pytest.fixture(scope="session")
def family():
    return diagonal_family()


def random_family(genus, n, seed, m=3, radius=0.2):
    """Seeded genus-g family of commuting diagonal GL(n) images.

    Each diagonal entry is exp(z0) + sum_k z_k s_k + z_q s_i s_j with complex
    Gaussian z's of size 0.3 and one random quadratic monomial, so the
    surface relator holds identically while the pulled-back form varies.
    """
    rng = np.random.default_rng(seed)
    pres = Presentation.surface(genus)

    def cplx(size=None):
        return 0.3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    images = {}
    for name in pres.generator_names:
        rows = [[Poly(m) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            entry = Poly.const(m, np.exp(cplx()))
            for k, z in enumerate(cplx(m)):
                entry = entry + complex(z) * Poly.var(m, k)
            a, b = rng.integers(0, m, size=2)
            entry = entry + complex(cplx()) * Poly.var(m, a) * Poly.var(m, b)
            rows[i][i] = entry
        images[name] = rows
    return FamilySpec(pres, GroupSpec("GL", n), tuple(f"s{k + 1}" for k in range(m)),
                      (radius,) * m, images)
