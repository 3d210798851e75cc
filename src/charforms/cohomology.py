"""Twisted cocycle/coboundary spaces, the Fox walk and bar-resolution chains.

Group elements inside bar chains are carried by fixed reduced free words.
Boundary computations compare words through a deterministic normal-form map
that deletes literal relator subwords; no word-problem machinery is involved
because every value paired with a chain is a genuine function on the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .errors import InvalidInput, NotSurfacePresentation, RankInstability
from .matgroup import Representation, _read_only, coboundary, identity_values
from .numeric import rank_and_gap
from .words import Presentation, Word

__all__ = [
    "CocycleSpace",
    "BarChain",
    "fox_jacobian",
    "cocycle_space",
    "cocycle_walk",
    "walk_words",
    "fundamental_two_cycle",
    "bar_boundary",
    "verify_cycle",
    "normal_form",
]


def fox_jacobian(rho: Representation) -> np.ndarray:
    """Stacked Ad-evaluated Fox derivatives of the relators.

    Shape (R * dim g, p * dim g): the blocks J_r, ``walk_words`` of the
    relators on ``identity_values``.  The kernel of this matrix is
    Z^1(Gamma, Ad rho) in stacked generator coordinates.  Kept on rho.
    """
    if rho._fox is None:
        relators = rho.presentation.relators
        table = walk_words(rho._at.ad, rho._at.ad_inv, identity_values(rho), relators)
        rho._fox = _read_only(np.array([table[r][1] for r in relators],
                                       dtype=complex).reshape(-1, rho.p * rho.dim_g))
    return rho._fox


def _off_cocycle(resid, sigma) -> np.ndarray:
    """Where |J sigma| = resid exceeds 1e-8 max(|sigma|, 1), sigma (..., p, d):
    the one rule for a value that is not a cocycle."""
    return resid > 1e-8 * np.maximum(np.linalg.norm(sigma, axis=(-2, -1)), 1)


@dataclass(frozen=True, eq=False)
class CocycleSpace:
    """Orthonormal bases of Z^1 and B^1 at a representation, stacked as
    columns (p * dim g, k), and H^1 representatives built from them on
    first use."""

    rho: Representation
    z1: np.ndarray
    b1: np.ndarray
    rank_gap: float  # least kept / dropped singular-value ratio of Z^1 and B^1

    @cached_property
    def h1(self) -> np.ndarray:
        """The orthonormal complement, inside Z^1, of B^1 projected into Z^1:
        dim Z^1 - dim B^1 columns."""
        u = np.linalg.svd(self.z1.conj().T @ self.b1)[0]
        return _read_only(self.z1 @ u[:, self.b1.shape[1]:])

    @property
    def dims(self):
        z, b = self.z1.shape[1], self.b1.shape[1]
        return (z, b, z - b)

    def h2_dim(self):
        """dim H^2 as the cokernel of the Fox Jacobian.

        Only meaningful for single-relator (aspherical) presentations; None
        for multi-relator input.
        """
        if len(self.rho.presentation.relators) != 1:
            return None
        d = self.rho.dim_g
        return d - (self.rho.p * d - self.z1.shape[1])


def cocycle_space(rho: Representation) -> CocycleSpace:
    """Z^1 as the kernel of the Fox Jacobian and B^1 as the image of
    v -> (v - Ad rho(x_k) v)_k, two SVD rank decisions at rho.tol; H^1
    representatives are the orthonormal complement, inside Z^1, of B^1
    projected into Z^1, so dim H^1 = dim Z^1 - dim B^1.

    Raises RankInstability when a singular value of either decision lies
    within a factor 10 of its cutoff.
    """
    tol = rho.tol
    z1 = rank_and_gap(fox_jacobian(rho), tol)
    b1 = rank_and_gap(coboundary(rho, np.eye(rho.dim_g)), tol)
    for what, dec in (("fox_jacobian", z1), ("coboundary map", b1)):
        if dec.margin < 10:
            raise RankInstability(
                f"{what}: a singular value lies within a factor "
                f"{dec.margin:.3g} < 10 of the cutoff")
    return CocycleSpace(rho, _read_only(z1.kernel), _read_only(b1.image),
                        min(z1.gap, b1.gap))


def cocycle_walk(ad, ad_inv, values, letters, start=None):
    """(Ad rho(uw), sigma(uw)) from start = (Ad rho(u), sigma(u)), one letter
    of w at a time: sigma(uv) = sigma(u) + Ad rho(u) sigma(v).  With no start
    the walk begins at the first letter x^{+-1} of w, (Ad x, sigma(x)) or
    (Ad x^-1, -Ad x^-1 sigma(x)), and the empty word gives (I, 0).
    Batched over leading axes: ad, ad_inv (..., p, d, d) are the generators'
    Ad matrices and their inverses, values (..., p, d, k) the values of k
    cocycles on the generators.  Ad rho(w) (..., d, d) keeps the batch of
    ad; sigma(w) (..., d, k) takes the joint batch of ad and values."""
    if start is None:
        batch = np.broadcast_shapes(ad.shape[:-3], values.shape[:-3])
        d, k = values.shape[-2:]
        if letters:
            (g, s), letters = letters[0], letters[1:]
            acc = (ad if s == 1 else ad_inv)[..., g, :, :]
            sig = values[..., g, :, :] if s == 1 else -(acc @ values[..., g, :, :])
        else:
            acc = np.broadcast_to(np.eye(d, dtype=complex), ad.shape[:-3] + (d, d))
            sig = np.zeros((d, k), dtype=complex)
        start = acc, np.broadcast_to(sig, batch + (d, k))
    acc, sig = start
    for g, s in letters:
        if s == 1:
            sig = sig + acc @ values[..., g, :, :]
            acc = acc @ ad[..., g, :, :]
        else:
            acc = acc @ ad_inv[..., g, :, :]
            sig = sig - acc @ values[..., g, :, :]
    return acc, sig


def walk_words(ad, ad_inv, values, words) -> dict:
    """``cocycle_walk`` of every word, shortest first: a word continues by
    one letter step from the nonempty word one letter shorter when that was
    walked (a relator prefix of the fundamental cycle), else it starts at its
    first letter.  Either way its letters multiply in the same order."""
    walked = {}
    for w in sorted(dict.fromkeys(words), key=lambda w: len(w.letters)):
        head = w.letters[:-1]
        walked[w.letters] = (
            cocycle_walk(ad, ad_inv, values, w.letters[-1:], walked[head])
            if head and head in walked else cocycle_walk(ad, ad_inv, values, w.letters))
    return {w: walked[w.letters] for w in words}


# ---------------------------------------------------------------------------
# Bar chains


@dataclass(frozen=True)
class BarChain:
    """Integer combination of bar tuples [g1|...|gn]."""

    degree: int
    terms: tuple  # tuple of ((Word, ..., Word), int), no zero coefficients

    @staticmethod
    def of(degree: int, mapping) -> "BarChain":
        items = []
        for tup, c in dict(mapping).items():
            tup = tuple(tup)
            if len(tup) != degree:
                raise InvalidInput(f"tuple {tup} does not match degree {degree}")
            if c != 0:
                items.append((tup, int(c)))
        items.sort(key=lambda t: tuple((len(w.letters), w.letters) for w in t[0]))
        return BarChain(degree, tuple(items))

    @cached_property
    def _slots(self) -> tuple:
        """The partial products h_i = g_1...g_i of the terms [g_1|...|g_n],
        one tuple of T words per slot i, and the coefficients (T,)."""
        prefixes = [accumulate(gammas, Word.__mul__) for gammas, _ in self.terms]
        return tuple(zip(*prefixes)), np.array([c for _, c in self.terms], dtype=float)

    @cached_property
    def words(self) -> tuple:
        """The words a pairing walks: the partial products, each once."""
        return tuple(dict.fromkeys(w for h in self._slots[0] for w in h))

    def drop_term(self, index: int) -> "BarChain":
        return BarChain(self.degree,
                        self.terms[:index] + self.terms[index + 1:])

    def is_zero(self) -> bool:
        return not self.terms


def normal_form(w: Word, presentation: Presentation) -> Word:
    """Deterministic normal form: freely reduced, with literal relator
    subwords (and their inverses) deleted repeatedly, leftmost first; on a
    free group (``Presentation.free``) the reduced word itself."""
    patterns = []
    for r in presentation.relators:
        if r.letters:
            patterns.append(r.letters)
            inv = r.inverse().letters
            if inv != r.letters:
                patterns.append(inv)
    changed = True
    letters = w.letters
    while changed:
        changed = False
        for pat in patterns:
            L = len(pat)
            for i in range(len(letters) - L + 1):
                if letters[i:i + L] == pat:
                    letters = Word.of(letters[:i] + letters[i + L:]).letters
                    changed = True
                    break
            if changed:
                break
    return Word(letters)


def bar_boundary(chain: BarChain, presentation: Presentation) -> BarChain:
    """Boundary with trivial coefficients, degree n >= 1 to n - 1:
    [g_2|...|g_n] + sum_i (-1)^i [...|g_i g_{i+1}|...] + (-1)^n [g_1|...|g_{n-1}],
    each word in its normal form."""
    n = chain.degree
    if n < 1:
        raise InvalidInput(f"boundary needs degree at least 1, not {n}")
    acc: dict = {}
    for gammas, c in chain.terms:
        faces = [gammas[1:]]
        faces += [gammas[:i] + (gammas[i] * gammas[i + 1],) + gammas[i + 2:]
                  for i in range(n - 1)]
        faces.append(gammas[:-1])
        for i, face in enumerate(faces):
            key = tuple(normal_form(w, presentation) for w in face)
            acc[key] = acc.get(key, 0) + (-1) ** i * c
    return BarChain.of(n - 1, acc)


def verify_cycle(chain: BarChain, presentation: Presentation) -> bool:
    """True iff the boundary vanishes identically (exact integers)."""
    return bar_boundary(chain, presentation).is_zero()


def _surface_genus(presentation: Presentation) -> int:
    """Genus if the presentation is the standard surface one, else raise."""
    p = presentation.p
    if p == 0 or p % 2 != 0 or len(presentation.relators) != 1:
        raise NotSurfacePresentation("need 2g generators and a single relator")
    g = p // 2
    if presentation.relators[0] != Presentation.surface(g).relators[0]:
        raise NotSurfacePresentation(
            "relator is not the standard product of commutators")
    return g


@lru_cache(maxsize=16)
def fundamental_two_cycle(presentation: Presentation) -> BarChain:
    """Bar 2-cycle representing the fundamental class of the genus-g surface.

    Built and verified once per presentation; the result is immutable.

    z = sum_{j=1}^{4g-1} [w_j | y_{j+1}] - sum_i ([a_i|a_i^-1] + [b_i|b_i^-1])
        - (2g-1) [e|e],
    with w_j the reduced relator prefixes.  The boundary vanishes exactly once
    the full relator word is collapsed to e by the normal-form map.
    """
    g = _surface_genus(presentation)
    letters = presentation.relators[0].letters
    acc = {(Word(letters[:j]), Word(letters[j:j + 1])): 1 for j in range(1, 4 * g)}
    for k in range(2 * g):
        acc[Word.generator(k), Word.generator(k, -1)] = -1
    acc[Word.identity(), Word.identity()] = -(2 * g - 1)
    chain = BarChain.of(2, acc)
    if not verify_cycle(chain, presentation):
        raise NotSurfacePresentation("constructed chain is not a cycle")
    return chain

