import copy
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charforms import (
    BarChain,
    GroupSpec,
    Presentation,
    Representation,
    Word,
    cocycle_space,
    fox_jacobian,
    fundamental_two_cycle,
    lie_algebra_basis,
    parse_word,
    verify_cycle,
)
import charforms.cohomology
from charforms.cohomology import (
    bar_boundary,
    cocycle_walk,
    identity_values,
    normal_form,
    walk_words,
)
from charforms.matgroup import (
    _relator_jacobian,
    coboundary,
    evaluate_word,
    matrix_exp,
)
from charforms.errors import InvalidInput, NotSurfacePresentation, RankInstability
from charforms.numeric import Tolerances

from conftest import h0_dim, random_point
from oracles import adjoint_operator, exact_dims, fox_blocks, pair

SL2 = GroupSpec("SL", 2)


class TestCocycleSpace:
    def test_free_group_dims(self, f2_rep):
        space = cocycle_space(f2_rep)
        assert space.dims == (6, 3, 3)

    def test_genus2_dims(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        assert space.dims == (9, 3, 6)
        assert space.h2_dim() == 0

    def test_torus_dims(self, torus_rep):
        space = cocycle_space(torus_rep)
        assert space.dims[2] == 2
        assert space.h2_dim() == 1  # reducible point carries H^2

    def test_euler_characteristic(self, genus2_rep, torus_rep):
        # 1 - dim H^1 + dim H^2 = chi(surface) * dim g with dim H^0 added back
        for rho, genus in ((genus2_rep, 2), (torus_rep, 1)):
            space = cocycle_space(rho)
            chi = 2 - 2 * genus
            assert h0_dim(rho) - space.dims[2] + space.h2_dim() == chi * rho.dim_g

    def test_z1_in_kernel(self, genus2_rep):
        jac = fox_jacobian(genus2_rep)
        space = cocycle_space(genus2_rep)
        for sigma in space.z1.T:
            assert np.linalg.norm(jac @ sigma) < 1e-10

    def test_h1_orthogonal_to_b1(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        for h in space.h1.T:
            assert np.linalg.norm(space.b1.conj().T @ h) < 1e-10

    def test_rank_gap_large(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        assert space.rank_gap >= 1e3

    def test_rank_instability_raised(self, genus2_rep):
        # a cutoff placed inside the spectrum trips the factor-10 guard; the
        # point's own tolerances govern its rank decisions
        rho = Representation(genus2_rep.presentation, genus2_rep.group,
                             genus2_rep.images, tol=Tolerances(rank_rel=1e-1))
        with pytest.raises(RankInstability):
            cocycle_space(rho)

    @pytest.mark.parametrize("fixture", ["genus2_rep", "f2_rep"])
    @pytest.mark.parametrize("rank_rel", [1e-13, 1e-10, 1e-6, 1e-3, 1e-2,
                                          1e-1, 0.5])
    def test_rank_instability_exactly_near_cutoff(self, fixture, rank_rel,
                                                  request):
        """Raised iff a singular value of the Fox Jacobian or the coboundary
        map lies within a factor 10 of its cutoff, with both matrices
        rebuilt here.  H^1 takes no decision of its own.
        On F_2 (no relators) only the coboundary map can trip it.  The swept
        tolerance goes to a copy of the point: from a cutoff of 0.146 on (the
        singular-value ratio of the genus-2 image a1), a point built anew with
        it would refuse its images as singular."""
        rho = request.getfixturevalue(fixture)
        jac = fox_jacobian(rho)
        cob = np.stack([coboundary(rho, np.eye(rho.dim_g)[:, j])
                        for j in range(rho.dim_g)], axis=1)
        near = False
        for m in (jac, cob):
            if m.size:
                s = scipy.linalg.svdvals(m)
                cutoff = rank_rel * s[0]
                near |= bool(np.any((s > cutoff / 10) & (s < cutoff * 10)))
        swept = copy.copy(rho)
        swept.tol = Tolerances(rank_rel=rank_rel)
        if near:
            with pytest.raises(RankInstability):
                cocycle_space(swept)
        else:
            space = cocycle_space(swept)
            assert space.dims == cocycle_space(rho).dims


def test_bases_are_the_stacked_columns_and_h1_is_built_once(genus2_rep, monkeypatch):
    """Z^1 and B^1 are the stacked matrices of the rank decisions; H^1 is
    one SVD of Z^H B, run on first use and kept."""
    space = cocycle_space(genus2_rep)
    svds = Counter()
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svds["calls"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    h1 = space.h1
    assert space.h1 is h1 and svds["calls"] == 1
    pd, (zi, bi, hi) = genus2_rep.p * genus2_rep.dim_g, space.dims
    assert space.z1.shape == (pd, zi) and space.b1.shape == (pd, bi)
    assert h1.shape == (pd, hi) == (pd, zi - bi)
    assert svds["calls"] == 1
    assert np.abs(h1.conj().T @ h1 - np.eye(hi)).max() < 1e-12
    assert np.abs(space.b1.conj().T @ h1).max() < 1e-12


@pytest.mark.parametrize("ad_batch,values_batch",
                         [((), ()), ((3,), ()), ((), (3,)), ((2, 1), (3,))])
def test_a_walk_starts_at_its_first_letter(ad_batch, values_batch):
    """A one-letter word x^{+-1} walks to (Ad x, sigma(x)) or (Ad x^-1,
    -Ad x^-1 sigma(x)) bit for bit, Ad at the batch of ad and sigma
    broadcast to the joint batch, whether or not the empty word is walked
    beside it."""
    rng = np.random.default_rng(11)
    p, d, k = 2, 3, 2

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    ad, ad_inv = draw(ad_batch + (p, d, d)), draw(ad_batch + (p, d, d))
    values = draw(values_batch + (p, d, k))
    values[..., 0, 0, 0] = -0.0  # would read +0.0 in a walk continued from (I, 0)
    batch = np.broadcast_shapes(ad_batch, values_batch)
    letters = [Word.generator(g, e) for g in range(p) for e in (1, -1)]
    for words in (letters, [Word.identity(), *letters]):
        table = walk_words(ad, ad_inv, values, words)
        for g in range(p):
            x, x_inv, v = ad[..., g, :, :], ad_inv[..., g, :, :], values[..., g, :, :]
            for e, want in ((1, (x, v)), (-1, (x_inv, -(x_inv @ v)))):
                for got, expected, shape in zip(table[Word.generator(g, e)], want,
                                                (ad_batch, batch)):
                    expected = np.broadcast_to(expected, shape + expected.shape[-2:])
                    assert got.shape == expected.shape
                    assert (np.ascontiguousarray(got).tobytes()
                            == np.ascontiguousarray(expected).tobytes())


def _float_dims(presentation, group, images):
    """``cocycle_space`` dims at the float rounding of exact images."""
    images = [np.array(sympy.Matrix(m).tolist(), dtype=float) for m in images]
    return cocycle_space(Representation(presentation, group, images)).dims


def _commutator_conjugates(a, b, shift):
    """Genus-2 SL(2) images (A, B, gBg^-1, gAg^-1), g = [B, A] + shift I:
    g commutes with [B, A], so [A, B][gBg^-1, gAg^-1] = I exactly."""
    a, b = sympy.Matrix(a), sympy.Matrix(b)
    g = b * a * b.inv() * a.inv() + shift * sympy.eye(2)
    return [a, b, g * b * g.inv(), g * a * g.inv()]


_A, _B, _C = [[2, 1], [1, 1]], [[1, 1], [1, 2]], [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
_D = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
_HALF, _THIRD, _SIXTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
_R, _S = [[2, 1], [0, _HALF]], [[3, -1], [0, _THIRD]]
_HAND_POINTS = {
    "acceptance": (Presentation.surface(2), SL2, [_A, _B, _B, _A]),
    "reducible": (Presentation.surface(2), SL2, [_R, _S, _S, _R]),
    "unipotent": (Presentation.surface(2), SL2, [[[1, 1], [0, 1]], [[1, 2], [0, 1]]] * 2),
    "trivial": (Presentation.surface(2), SL2, [[[1, 0], [0, 1]]] * 4),
    "central": (Presentation.surface(2), SL2, [[[-1, 0], [0, -1]]] * 4),
    "diagonal-gl2": (Presentation.surface(1), GroupSpec("GL", 2),
                     [[[2, 0], [0, 3]], [[5, 0], [0, 7]]]),
    "diagonal-sl2": (Presentation.surface(1), SL2,
                     [[[2, 0], [0, _HALF]], [[3, 0], [0, _THIRD]]]),
    "genus3": (Presentation.surface(3), SL2,
               [_A, _B, _B, _A, _B, [[2, 3], [3, 5]]]),
    "f2": (Presentation.free(["a", "b"]), SL2, [[[2, 0], [0, _HALF]], _B]),
    "f3": (Presentation.free(["a", "b", "c"]), SL2, [_A, _B, [[1, 0], [1, 1]]]),
    "sl3-genus2": (Presentation.surface(2), GroupSpec("SL", 3), [_C, _D, _D, _C]),
    "sl3-torus": (Presentation.surface(1), GroupSpec("SL", 3),
                  [[[2, 0, 0], [0, 3, 0], [0, 0, _SIXTH]],
                   [[5, 0, 0], [0, _HALF, 0], [0, 0, Fraction(2, 5)]]]),
}


class TestExactDims:
    """``cocycle_space`` dims against ranks over Q (``oracles.exact_dims``)."""

    def test_rounding_residue_is_not_a_dimension(self):
        """At A = [[2, 1], [1, 1]], B = [[1, 1], [1, 2]] and their conjugates by
        g = [B, A] + 3I the computed B^1 lies about 1e-9 off the computed Z^1
        (|J| = 2.6e3); H^1 is still dim Z^1 - dim B^1 = 6."""
        images = _commutator_conjugates(_A, _B, 3)
        assert images[2] == sympy.Matrix([[4, -5], [1, -1]])
        assert exact_dims(Presentation.surface(2), SL2, images) == (9, 3, 6)
        assert _float_dims(Presentation.surface(2), SL2, images) == (9, 3, 6)

    @pytest.mark.parametrize("name", sorted(_HAND_POINTS))
    def test_hand_points(self, name):
        exact = exact_dims(*_HAND_POINTS[name])
        assert _float_dims(*_HAND_POINTS[name]) == exact

    def test_oracle_on_known_counts(self):
        # trivial genus 2: every assignment of sl(2) values is a cocycle
        assert exact_dims(*_HAND_POINTS["trivial"]) == (12, 0, 12)
        assert exact_dims(*_HAND_POINTS["f2"]) == (6, 3, 3)
        # torus, centralizer of dim 2 = dim H^0 = dim H^2, so dim H^1 = 4
        assert exact_dims(*_HAND_POINTS["diagonal-gl2"]) == (6, 2, 4)


_SMALL_SL2 = [[[a, b], [c, d]] for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
              if a * d - b * c == 1]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from(_SMALL_SL2), b=st.sampled_from(_SMALL_SL2),
       shift=st.integers(1, 4))
def test_dims_match_exact_ranks(a, b, shift):
    """At rational genus-2 SL(2) points (A, B, gBg^-1, gAg^-1), g = [B, A] +
    shift I, the dims equal the ranks over Q, and dim H^1 = dim Z^1 - dim B^1.
    Points whose float relator residual exceeds the bound are refused."""
    images = _commutator_conjugates(a, b, shift)
    try:
        dims = _float_dims(Presentation.surface(2), SL2, images)
    except InvalidInput:
        assume(False)
    assert dims == exact_dims(Presentation.surface(2), SL2, images)
    assert dims[2] == dims[0] - dims[1]


def _reference_relator_jacobian(rho):
    """Columns vec((D_k x) rho(r)) of the Gauss-Newton relator Jacobian, one
    Lie-algebra basis vector x at a time."""
    n, d = rho.group.n, rho.dim_g
    blocks = []
    for r in rho.presentation.relators:
        rho_r = evaluate_word(rho, r)
        block = np.zeros((n * n, rho.p * d), dtype=np.complex128)
        for k, dk in enumerate(fox_blocks(rho, r)):
            for m in range(d):
                x = rho.basis.matrix_from_coords(dk[:, m])
                block[:, k * d + m] = (x @ rho_r).reshape(-1)
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


@pytest.mark.parametrize("genus,kind,n", [(1, "SL", 2), (2, "SL", 2), (3, "SL", 2),
                                          (2, "SL", 3), (2, "GL", 2)])
def test_jacobians_match_fox_oracle(genus, kind, n):
    """fox_jacobian and the relator Jacobian, both built from cocycle walks,
    equal their term-by-term constructions from exact Fox derivatives, at a
    point moved off the variety as a Gauss-Newton iterate is (rho(r) != I)."""
    rho, rng = random_point(genus, 7, kind, n)
    moved = [matrix_exp(rho.basis.matrix_from_coords(
        0.05 * rng.standard_normal(rho.dim_g))) @ m for m in rho.images]
    rho = Representation(rho.presentation, rho.group, moved, check=False)
    assert np.linalg.norm(evaluate_word(rho, rho.presentation.relators[0])
                          - np.eye(n)) > 1e-3
    ref = np.concatenate([np.concatenate(fox_blocks(rho, r), axis=1)
                          for r in rho.presentation.relators])
    assert np.abs(fox_jacobian(rho) - ref).max() <= 1e-12 * np.abs(ref).max()
    ref = _reference_relator_jacobian(rho)
    jac = _relator_jacobian(rho, rho._at, identity_values(rho))
    assert np.abs(jac - ref).max() <= 1e-12 * np.abs(ref).max()


def _extend(rho, sigma):
    """A cocycle, stacked (p * dim g,), on any word: ``walk_words`` of the
    word on its generator values."""
    values = np.reshape(sigma, (rho.p, -1, 1))
    return lambda w: walk_words(rho._at.ad, rho._at.ad_inv, values, [w])[w][1][:, 0]


class TestExtendCocycle:
    """The walk of one cocycle obeys the cocycle rule, checked against
    Ad rho(u) from explicit products."""

    def test_cocycle_rule(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        sigma = space.h1[:, 0]
        ext = _extend(genus2_rep, sigma)
        rng = np.random.default_rng(0)
        names = genus2_rep.presentation.generator_names
        for _ in range(20):
            letters = [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                       for _ in range(6)]
            u = Word.of(letters[:3])
            v = Word.of(letters[3:])
            lhs = ext(u * v)
            rhs = ext(u) + adjoint_operator(genus2_rep, u) @ ext(v)
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_identity_and_inverse(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        sigma = space.z1[:, 0]
        ext = _extend(genus2_rep, sigma)
        assert np.linalg.norm(ext(Word.identity())) == 0
        w = parse_word("a1 b2 a2^-1", genus2_rep.presentation.generator_names)
        lhs = ext(w.inverse())
        rhs = -(adjoint_operator(genus2_rep, w.inverse()) @ ext(w))
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_vanishes_on_relator(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        for sigma in space.z1.T:
            ext = _extend(genus2_rep, sigma)
            assert np.linalg.norm(ext(genus2_rep.presentation.relators[0])) < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(letters=st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))),
                        max_size=8))
def test_walk_is_evaluated_fox_derivative(genus2_rep, letters):
    """J_w from the cocycle rule equals the Ad-evaluated exact Fox
    derivatives of w, block by block, and Ad rho(w) comes along."""
    w = Word.of(letters)
    ad_w, jac = walk_words(genus2_rep._at.ad, genus2_rep._at.ad_inv,
                           identity_values(genus2_rep), [w])[w]
    fox = np.concatenate(fox_blocks(genus2_rep, w), axis=1)
    ad_ref = adjoint_operator(genus2_rep, w)
    assert np.abs(jac - fox).max() <= 1e-12 * max(1.0, np.abs(fox).max())
    assert np.abs(ad_w - ad_ref).max() <= 1e-12 * np.abs(ad_ref).max()


def test_prefix_walk_matches_fox_oracle(monkeypatch):
    """At genus 3 the fundamental cycle has 22 distinct nonempty words; the
    prefix walk takes one letter step per word (11 for the relator prefixes,
    66 when each prefix is walked from e) and matches Ad rho(w) and the
    Ad-evaluated exact Fox derivatives of every word."""
    rho, _ = random_point(3, 2, "SL", 3)
    words = fundamental_two_cycle(rho.presentation).words
    steps = Counter()
    walk = charforms.cohomology.cocycle_walk

    def counted(ad, ad_inv, values, letters, start=None):
        steps["letters"] += len(letters)
        return walk(ad, ad_inv, values, letters, start)

    monkeypatch.setattr(charforms.cohomology, "cocycle_walk", counted)
    table = walk_words(rho._at.ad, rho._at.ad_inv, identity_values(rho), words)
    distinct = {w for w in words if w.letters}
    assert len(distinct) == 22 and steps["letters"] == 22
    monkeypatch.undo()
    for w in distinct | {Word.identity()}:
        ad_w = adjoint_operator(rho, w)
        jac_w = np.concatenate(fox_blocks(rho, w), axis=1)
        assert np.abs(table[w][0] - ad_w).max() <= 1e-14 * np.abs(ad_w).max()
        assert np.abs(table[w][1] - jac_w).max() <= 1e-14 * max(np.abs(jac_w).max(), 1)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(letters=st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))),
                        max_size=8),
       seed=st.integers(0, 2 ** 16))
def test_batched_walk_matches_per_point(letters, seed):
    """cocycle_walk on a stack of 3 points and 2 random cocycles equals, point
    by point, Ad rho(w), the Ad-evaluated exact Fox derivatives of w applied
    to the cocycles, and the one-point walk of each cocycle."""
    rng = np.random.default_rng(seed)
    group = GroupSpec("SL", 2)
    basis = lie_algebra_basis(group)
    points = [Representation(Presentation.surface(2), group, matrix_exp(
        basis.matrix_from_coords(0.4 * (rng.standard_normal((4, 3))
                                        + 1j * rng.standard_normal((4, 3))))),
        check=False) for _ in range(3)]
    values = rng.standard_normal((3, 4, 3, 2)) + 1j * rng.standard_normal((3, 4, 3, 2))
    ad = np.stack([rho._at.ad for rho in points])
    ad_inv = np.stack([rho._at.ad_inv for rho in points])
    w = Word.of(letters)
    ad_w, sigma_w = cocycle_walk(ad, ad_inv, values, w.letters)
    for rho, x, a, s in zip(points, values, ad_w, sigma_w):
        ad_ref = adjoint_operator(rho, w)
        jac = np.concatenate(fox_blocks(rho, w), axis=1)
        assert np.abs(a - ad_ref).max() <= 1e-12 * np.abs(ad_ref).max()
        assert np.abs(s - jac @ x.reshape(-1, 2)).max() <= 1e-12 * max(1, np.abs(s).max())
        for j in range(2):
            ext = _extend(rho, x[..., j].reshape(-1))
            assert np.abs(s[:, j] - ext(w)).max() <= 1e-12 * max(1, np.abs(s).max())


class TestNormalForm:
    def test_deletes_relator_subword(self):
        pres = Presentation.surface(1)
        r = pres.relators[0]
        w = Word.generator(1, -1) * r * Word.generator(0)
        assert normal_form(w, pres) == Word.generator(1, -1) * Word.generator(0)

    def test_deletes_inverse_relator(self):
        pres = Presentation.surface(1)
        assert normal_form(pres.relators[0].inverse(), pres) == Word.identity()

    def test_no_presentation_is_identity_map(self):
        """The free group, a presentation with no relators, keeps every
        reduced word."""
        w = Word.of([(0, 1), (1, -1)])
        assert normal_form(w, Presentation.free(["a", "b"])) == w


class TestFundamentalCycle:
    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_boundary_vanishes(self, genus):
        pres = Presentation.surface(genus)
        cycle = fundamental_two_cycle(pres)
        assert verify_cycle(cycle, pres)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_term_count(self, genus):
        chain = fundamental_two_cycle(Presentation.surface(genus))
        # 4g - 1 prefix terms, 2g inverse-pair terms, one [e|e] term
        assert len(chain.terms) == 6 * genus

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_each_term_essential(self, genus):
        pres = Presentation.surface(genus)
        chain = fundamental_two_cycle(pres)
        for i in range(len(chain.terms)):
            assert not verify_cycle(chain.drop_term(i), pres)

    def test_verified_once_per_presentation(self, monkeypatch):
        calls = Counter()
        verify = charforms.cohomology.verify_cycle

        def counted(*args):
            calls["verify_cycle"] += 1
            return verify(*args)

        monkeypatch.setattr(charforms.cohomology, "verify_cycle", counted)
        fundamental_two_cycle.cache_clear()
        first = fundamental_two_cycle(Presentation.surface(2))
        assert fundamental_two_cycle(Presentation.surface(2)) is first
        assert calls == Counter(verify_cycle=1)

    def test_rejects_non_surface(self):
        with pytest.raises(NotSurfacePresentation):
            fundamental_two_cycle(Presentation.parse(["a", "b"], ["a b a b"]))
        with pytest.raises(NotSurfacePresentation):
            fundamental_two_cycle(Presentation.free(["a", "b"]))


def _random_chain(rng, degree):
    """Three bar tuples of random 3-letter words over F_2, coefficients 1-3."""
    words = [Word.of([(int(rng.integers(0, 2)), int(rng.choice([-1, 1])))
                      for _ in range(3)]) for _ in range(3 * degree)]
    return BarChain.of(degree, {tuple(words[degree * i:degree * (i + 1)]):
                                i + 1 for i in range(3)})


F2 = Presentation.free(["a", "b"])


class TestBarBoundary:
    def test_boundary_squares_to_zero(self):
        rng = np.random.default_rng(1)
        for degree in (3, 4, 5):
            chain = _random_chain(rng, degree)
            assert not bar_boundary(chain, F2).is_zero()
            assert bar_boundary(bar_boundary(chain, F2), F2).is_zero()

    def test_verify_cycle_above_degree_two(self):
        rng = np.random.default_rng(2)
        for degree in (4, 5):
            assert verify_cycle(bar_boundary(_random_chain(rng, degree), F2), F2)
        a, b = Word.generator(0), Word.generator(1)
        assert not verify_cycle(BarChain.of(3, {(a, b, a): 1}), F2)

    def test_boundary_below_degree_one(self):
        with pytest.raises(ValueError):
            bar_boundary(BarChain.of(0, {(): 1}), F2)

    def test_words_of_every_term_in_term_order(self):
        """``BarChain.words``, the words a pairing walks: every slot of every
        term, in the sorted term order, repeats kept (``walk_words`` walks
        each word once); a zero coefficient drops its term."""
        e, a, b = Word.identity(), Word.generator(0), Word.generator(1)
        chain = BarChain.of(2, {(a * b, a): 2, (a, b): -1, (e, a): 1, (b, b): 0})
        assert chain.words == [e, a, a, b, a * b, a]
        assert BarChain.of(3, {}).words == []
        cycle = fundamental_two_cycle(Presentation.surface(2))
        assert len(cycle.words) == 2 * len(cycle.terms)
        assert set(cycle.words) == {w for gammas, _ in cycle.terms for w in gammas}

    def test_pair_linear(self, torus_rep):
        a, b = Word.generator(0), Word.generator(1)
        chain = BarChain.of(2, {(a, b): 2, (b, a): -1})
        calls = []

        def ev(x, y):
            calls.append((x, y))
            return 1.0

        assert pair(ev, chain) == 1.0
        assert len(calls) == 2
