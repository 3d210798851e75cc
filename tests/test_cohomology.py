import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforms import (
    BarChain,
    GroupSpec,
    Presentation,
    Representation,
    Word,
    cocycle_space,
    extend_cocycle,
    fox_jacobian,
    fundamental_two_cycle,
    pair,
    parse_word,
    verify_cycle,
)
from charforms.cohomology import ad_fox, bar_boundary, normal_form
from charforms.matgroup import adjoint_operator, evaluate_groupring
from charforms.words import fox_derivative
from charforms.errors import NotSurfacePresentation, RankInstability
from charforms.numeric import Tolerances

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
            from charforms.matgroup import invariant_subspace_dim
            h0 = invariant_subspace_dim(rho)
            chi = 2 - 2 * genus
            assert h0 - space.dims[2] + space.h2_dim() == chi * rho.dim_g

    def test_z1_in_kernel(self, genus2_rep):
        jac = fox_jacobian(genus2_rep)
        space = cocycle_space(genus2_rep)
        for sigma in space.basis_z1:
            assert np.linalg.norm(jac @ sigma.stacked) < 1e-10

    def test_h1_orthogonal_to_b1(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        b1 = np.stack([v.stacked for v in space.basis_b1], axis=1)
        for h in space.basis_h1:
            assert np.linalg.norm(b1.conj().T @ h.stacked) < 1e-10

    def test_rank_gap_large(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        assert space.rank_gap >= 1e3

    def test_rank_instability_raised(self, genus2_rep):
        # a cutoff placed inside the spectrum trips the factor-10 guard
        with pytest.raises(RankInstability):
            cocycle_space(genus2_rep, Tolerances(rank_rel=1e-1))


class TestExtendCocycle:
    def test_cocycle_rule(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        sigma = space.basis_h1[0]
        ext = extend_cocycle(genus2_rep, sigma)
        from charforms.matgroup import adjoint_operator
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
        sigma = space.basis_z1[0]
        ext = extend_cocycle(genus2_rep, sigma)
        assert np.linalg.norm(ext(Word.identity())) == 0
        w = parse_word("a1 b2 a2^-1", genus2_rep.presentation.generator_names)
        from charforms.matgroup import adjoint_operator
        lhs = ext(w.inverse())
        rhs = -(adjoint_operator(genus2_rep, w.inverse()) @ ext(w))
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_vanishes_on_relator(self, genus2_rep):
        space = cocycle_space(genus2_rep)
        for sigma in space.basis_z1:
            ext = extend_cocycle(genus2_rep, sigma)
            assert np.linalg.norm(ext(genus2_rep.presentation.relators[0])) < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(letters=st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))),
                        max_size=8))
def test_ad_fox_is_evaluated_fox_derivative(genus2_rep, letters):
    """J_w from the cocycle rule equals the Ad-evaluated exact Fox
    derivatives of w, block by block, and Ad rho(w) comes along."""
    w = Word.of(letters)
    ad_w, jac = ad_fox(genus2_rep, w)
    fox = np.concatenate([evaluate_groupring(genus2_rep, fox_derivative(w, k))
                          for k in range(genus2_rep.p)], axis=1)
    ad_ref = adjoint_operator(genus2_rep, w)
    assert np.abs(jac - fox).max() <= 1e-12 * max(1.0, np.abs(fox).max())
    assert np.abs(ad_w - ad_ref).max() <= 1e-12 * np.abs(ad_ref).max()


class TestNormalForm:
    def test_deletes_relator_subword(self):
        pres = Presentation.surface(1)
        r = pres.relators[0]
        w = Word.generator(1, -1) * r * Word.generator(0)
        assert normal_form(w, pres) == Word.generator(1, -1) * Word.generator(0)

    def test_deletes_inverse_relator(self):
        pres = Presentation.surface(1)
        assert normal_form(pres.relators[0].inverse(), pres).is_identity()

    def test_no_presentation_is_identity_map(self):
        w = Word.of([(0, 1), (1, -1)])
        assert normal_form(w, None) == w


class TestFundamentalCycle:
    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_boundary_vanishes(self, genus):
        pres = Presentation.surface(genus)
        cycle = fundamental_two_cycle(pres)
        assert verify_cycle(cycle.chain, pres)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_term_count(self, genus):
        chain = fundamental_two_cycle(Presentation.surface(genus)).chain
        # 4g - 1 prefix terms, 2g inverse-pair terms, one [e|e] term
        assert len(chain.terms) == 6 * genus

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_each_term_essential(self, genus):
        pres = Presentation.surface(genus)
        chain = fundamental_two_cycle(pres).chain
        for i in range(len(chain.terms)):
            assert not verify_cycle(chain.drop_term(i), pres)

    def test_rejects_non_surface(self):
        with pytest.raises(NotSurfacePresentation):
            fundamental_two_cycle(Presentation.parse(["a", "b"], ["a b a b"]))
        with pytest.raises(NotSurfacePresentation):
            fundamental_two_cycle(Presentation.free(["a", "b"]))


class TestBarBoundary:
    def test_boundary_squares_to_zero(self):
        rng = np.random.default_rng(1)
        words = [Word.of([(int(rng.integers(0, 2)), int(rng.choice([-1, 1])))
                          for _ in range(3)]) for _ in range(9)]
        chain = BarChain.of(3, {tuple(words[3 * i:3 * i + 3]): i + 1
                                for i in range(3)})
        assert bar_boundary(bar_boundary(chain)).is_zero()

    def test_pair_linear(self, torus_rep):
        a, b = Word.generator(0), Word.generator(1)
        c1 = BarChain.of(2, {(a, b): 2})
        c2 = BarChain.of(2, {(b, a): -1})
        calls = []

        def ev(x, y):
            calls.append((x, y))
            return 1.0

        assert pair(ev, c1 + c2) == 1.0
        assert len(calls) == 2
