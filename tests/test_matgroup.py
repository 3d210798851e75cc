import re

import numpy as np
import pytest

from charforms import (
    GroupSpec,
    Presentation,
    Representation,
    Word,
    coboundary,
    evaluate_word,
    find_representation,
    is_irreducible,
    lie_algebra_basis,
    parse_word,
)
from charforms import matgroup
from charforms.errors import InvalidInput, NoConvergence
from charforms.matgroup import (
    _ad_matrix,
    _damped_newton,
    _violation,
    _word_values,
    complex_from_json,
    complex_to_json,
    representation_from_json,
    representation_to_json,
)
from charforms.numeric import matrix_exp
from charforms.words import GroupRingElement, fox_derivative

from conftest import genus2_point, h0_dim, random_point
from oracles import (
    ad_by_products,
    adjoint_operator,
    conjugate_representation,
    evaluate_groupring,
)

SL2 = GroupSpec("SL", 2)
SL3 = GroupSpec("SL", 3)
GL2 = GroupSpec("GL", 2)


class TestLieAlgebraBasis:
    def test_dimensions(self):
        assert lie_algebra_basis(SL2).dim == 3
        assert lie_algebra_basis(SL3).dim == 8
        assert lie_algebra_basis(GL2).dim == 4

    def test_sl2_ordering(self):
        basis = lie_algebra_basis(SL2)
        e12, e21, h = basis.matrices
        assert np.array_equal(e12, [[0, 1], [0, 0]])
        assert np.array_equal(e21, [[0, 0], [1, 0]])
        assert np.array_equal(h, [[1, 0], [0, -1]])

    def test_coordinate_roundtrip(self):
        rng = np.random.default_rng(0)
        for group in (SL2, SL3, GL2):
            basis = lie_algebra_basis(group)
            x = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            assert np.allclose(basis.coords_from_matrix(
                basis.matrix_from_coords(x)), x, atol=1e-12)

    def test_sl_traceless(self):
        for m in lie_algebra_basis(SL3).matrices:
            assert abs(np.trace(m)) == 0

    def test_coords_are_the_orthogonal_projection(self):
        """On matrices outside the algebra (trace != 0 for SL), read-off
        coordinates equal the least-squares coordinates of the pinv of the
        stacked basis, also for a batch."""
        rng = np.random.default_rng(5)
        for group in (SL2, SL3, GL2):
            basis = lie_algebra_basis(group)
            stack = np.stack([m.reshape(-1) for m in basis.matrices], axis=1)
            n = group.n
            m = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
            ref = (np.linalg.pinv(stack) @ m.reshape(4, -1).T).T
            assert np.abs(basis.coords_from_matrix(m) - ref).max() < 1e-12
            assert np.abs(basis.coords_from_matrix(m[0]) - ref[0]).max() < 1e-12

    @pytest.mark.parametrize("kind", ["GL", "SL"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ad_is_the_commutator(self, kind, n):
        """basis.ad(x) @ y are the coordinates of the matrix commutator
        [X, Y], for one x and for a stack."""
        basis = lie_algebra_basis(GroupSpec(kind, n))
        rng = np.random.default_rng(n)
        x, y = rng.standard_normal((2, 5, basis.dim)) + 1j * rng.standard_normal(
            (2, 5, basis.dim))
        mx, my = basis.matrix_from_coords(x), basis.matrix_from_coords(y)
        ref = basis.coords_from_matrix(mx @ my - my @ mx)
        got = (basis.ad(x) @ y[..., None])[..., 0]
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.abs(basis.ad(x[0]) @ y[0] - ref[0]).max() <= 1e-14 * np.abs(ref).max()

    def test_one_read_only_basis_per_group(self):
        basis = lie_algebra_basis(GroupSpec("SL", 2))
        assert lie_algebra_basis(GroupSpec("SL", 2)) is basis
        assert lie_algebra_basis(GroupSpec("GL", 2)) is not basis
        basis.ad(np.zeros(basis.dim))
        for a in (basis.matrices, *basis.matrices, basis._structure):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            basis.matrices[0][0, 1] = 2.0


class TestRepresentation:
    def test_relator_checked(self):
        pres = Presentation.surface(1)
        with pytest.raises(ValueError):
            # non-commuting pair fails the torus relator
            Representation(pres, SL2, [np.array([[2.0, 1.0], [1.0, 1.0]]),
                                       np.array([[1.0, 1.0], [1.0, 2.0]])])

    def test_sl_determinant_checked(self):
        pres = Presentation.free(["a"])
        with pytest.raises(ValueError):
            Representation(pres, SL2, [np.diag([2.0, 1.0])])

    def test_sl_determinant_bound_scales_with_the_matrix(self):
        # conjugates of diag(1e3, 1e-3), condition numbers around 1e6: their
        # det carries rounding far beyond an absolute 1e-10
        pres = Presentation.free(["a"])
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            Representation(pres, SL2, [p @ np.diag([1e3, 1e-3]) @ np.linalg.inv(p)])
        with pytest.raises(InvalidInput):
            Representation(pres, SL2, [np.diag([1.01, 1.0])])

    @pytest.mark.parametrize("images,reason", [
        ([np.diag([2.0, 1.0]), np.eye(2)], "SL image has |det - 1| > "),
        ([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]], "relator residual "),
    ])
    def test_violation_of_one_point_equals_its_stack(self, images, reason):
        """``_violation`` reads any leading axes: one bad torus point, as
        it is and as a 1-stack, gets the same reason at index 0, and in a
        (2, 3) stack of good points it is named by its flat index 4."""
        pres, images = Presentation.surface(1), np.array(images, dtype=complex)
        rel = _word_values(pres.relators, images, np.linalg.inv(images))
        one = _violation(pres, SL2, images, rel, 1e-9)
        assert one[0] == 0 and one[1].startswith(reason)
        assert _violation(pres, SL2, images[None], rel[None], 1e-9) == one
        stack = np.broadcast_to(np.eye(2, dtype=complex), (2, 3, 2, 2, 2)).copy()
        rels = np.broadcast_to(np.eye(2, dtype=complex), (2, 3, 1, 2, 2)).copy()
        assert _violation(pres, SL2, stack, rels, 1e-9) is None
        stack[1, 1], rels[1, 1] = images, rel
        assert _violation(pres, SL2, stack, rels, 1e-9) == (4, one[1])
        with pytest.raises(InvalidInput, match=re.escape(reason)):
            Representation(pres, SL2, images)

    def test_off_det_image_is_named_by_its_generator(self):
        """A genus-2 SL(2) point whose image of b1 is scaled to det 2: the
        relator still holds, and the refusal names b1."""
        rho = genus2_point()
        images = list(rho.images)
        images[1] = np.sqrt(2) * images[1]
        with pytest.raises(InvalidInput, match=r"\|det - 1\| > .* in the image of b1$"):
            Representation(rho.presentation, SL2, images)

    @pytest.mark.parametrize("relators,images,broken", [
        (None, [[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]], 0),
        (["a b A B", "a a B B"], [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3])], 1),
    ], ids=["torus", "second relator"])
    def test_broken_relator_is_named_by_its_index(self, relators, images, broken):
        """A torus point whose images do not commute, and commuting diagonal
        images where a^2 b^-2 = I fails: the refusal names the relator."""
        pres = (Presentation.parse(["a", "b"], relators) if relators
                else Presentation.surface(1))
        with pytest.raises(InvalidInput, match=f"exceeds tolerance in relator {broken}$"):
            Representation(pres, SL2, images)

    def test_evaluate_word(self, f2_rep):
        w = parse_word("a b A B", ["a", "b"])
        a, b = f2_rep.images
        expected = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        assert np.allclose(evaluate_word(f2_rep, w), expected, atol=1e-12)

    def test_json_roundtrip(self, genus2_rep):
        data = representation_to_json(genus2_rep)
        back = representation_from_json(data, genus2_rep.presentation)
        for m1, m2 in zip(genus2_rep.images, back.images):
            assert np.allclose(m1, m2)

    @pytest.mark.parametrize("n", [2.7, 2.5, "2", True, None, float("nan")])
    def test_json_size_must_be_an_integer(self, genus2_rep, n):
        data = representation_to_json(genus2_rep)
        data["group"]["n"] = n
        with pytest.raises(InvalidInput):
            representation_from_json(data, genus2_rep.presentation)

    def test_json_size_may_be_an_integral_float(self, genus2_rep):
        data = representation_to_json(genus2_rep)
        data["group"]["n"] = 2.0
        back = representation_from_json(data, genus2_rep.presentation)
        assert back.group == genus2_rep.group and type(back.group.n) is int


class TestComplexCodec:
    """``complex_to_json`` writes and ``complex_from_json`` reads every
    complex value of the wire format, as [re, im] pairs."""

    def test_roundtrip_is_exact_to_the_sign_of_zero(self):
        z = np.array([[1.5 - 0.0j, complex(-0.0, 2.0)], [3.0 + 1e-300j, -4.25j]])
        back = complex_from_json(complex_to_json(z), 2, "z")
        assert back.dtype == np.complex128 and back.shape == (2, 2)
        assert np.array_equal(back.view(np.float64), z.view(np.float64))
        assert np.signbit(back.view(np.float64)).tolist() == \
            np.signbit(z.view(np.float64)).tolist()

    def test_integers_and_a_scalar(self):
        assert complex_from_json([1, -2], 0, "c") == 1 - 2j
        assert complex_from_json([[1, 0], [2.5, 1]], 1, "c").tolist() == [1, 2.5 + 1j]
        assert complex_to_json(1 - 2j) == [1.0, -2.0]

    @pytest.mark.parametrize("data", [
        [1.0, 0.0, 5.0], [1.0], [float("nan"), 0.0], [0.0, float("inf")],
        [True, False], ["1", "0"], [None, 0.0], 1.0, "1", {"re": 1, "im": 0},
        [[1.0, 0.0]], [[1.0, 0.0], [1.0]]])
    def test_anything_but_one_finite_pair_is_invalid_input(self, data):
        with pytest.raises(InvalidInput, match=r"^c must be an \[re, im\] pair"):
            complex_from_json(data, 0, "c")

    @pytest.mark.parametrize("data", [[], [1.0, 0.0], [[[1.0, 0.0]]],
                                      [[1.0, 0.0], [1.0, 0.0, 0.0]]])
    def test_wrong_rank_or_ragged_is_invalid_input(self, data):
        with pytest.raises(InvalidInput, match="rank-1 array of"):
            complex_from_json(data, 1, "c")

    def test_image_stack_decodes_in_one_call(self, genus2_rep, monkeypatch):
        calls = []
        decode = matgroup.complex_from_json
        monkeypatch.setattr(matgroup, "complex_from_json",
                            lambda *args: calls.append(args[1:]) or decode(*args))
        back = representation_from_json(representation_to_json(genus2_rep),
                                        genus2_rep.presentation)
        assert calls == [(3, "representation 'images'")]
        assert all(np.array_equal(a, b) for a, b in zip(back.images, genus2_rep.images))


class TestAdjoint:
    def test_homomorphism(self, f2_rep):
        rng = np.random.default_rng(1)
        u = parse_word("a b A", ["a", "b"])
        v = parse_word("b b a", ["a", "b"])
        lhs = adjoint_operator(f2_rep, u * v)
        rhs = adjoint_operator(f2_rep, u) @ adjoint_operator(f2_rep, v)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_matches_conjugation(self, f2_rep):
        basis = f2_rep.basis
        w = parse_word("a B a", ["a", "b"])
        ad = adjoint_operator(f2_rep, w)
        g = evaluate_word(f2_rep, w)
        g_inv = np.linalg.inv(g)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = basis.matrix_from_coords(ad @ x)
        rhs = g @ basis.matrix_from_coords(x) @ g_inv
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_groupring_linearity(self, f2_rep):
        u = Word.generator(0)
        v = Word.generator(1, -1)
        xi = GroupRingElement.of({u: 2, v: -3})
        expected = (2 * adjoint_operator(f2_rep, u)
                    - 3 * adjoint_operator(f2_rep, v))
        assert np.allclose(evaluate_groupring(f2_rep, xi), expected, atol=1e-12)


class TestCoboundary:
    def test_is_cocycle(self, genus2_rep):
        # coboundaries always satisfy the linearized relator equation
        from charforms.cohomology import fox_jacobian
        jac = fox_jacobian(genus2_rep)
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            db = coboundary(genus2_rep, v)
            assert np.linalg.norm(jac @ db) < 1e-10

    def test_one_vector_is_one_column(self, genus2_rep):
        # (d,) gives (p d,) and (d, k) gives (p d, k), column by column
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        stack = coboundary(genus2_rep, v)
        assert stack.shape == (12, 4)
        for j in range(4):
            column = coboundary(genus2_rep, v[:, j])
            assert column.shape == (12,)
            assert np.abs(column - stack[:, j]).max() <= 1e-15 * np.abs(stack).max()


class TestFindRepresentation:
    def test_corrects_perturbed_point(self, genus2_rep):
        rng = np.random.default_rng(4)
        seed = [m + 1e-3 * rng.standard_normal((2, 2)) for m in genus2_rep.images]
        rho = find_representation(genus2_rep.presentation, SL2, seed)
        r = genus2_rep.presentation.relators[0]
        assert np.linalg.norm(evaluate_word(rho, r) - np.eye(2)) < 1e-11
        for m in rho.images:
            assert abs(np.linalg.det(m) - 1.0) < 1e-10

    def test_free_group_trivial(self, f2_rep):
        rho = find_representation(f2_rep.presentation, SL2, f2_rep.images)
        for m1, m2 in zip(rho.images, f2_rep.images):
            assert np.allclose(m1, m2)

    def test_overflowing_step_is_halved(self):
        # the full step from diag(1e-3, 1) towards <a | a> is about
        # diag(999, 0), whose exponential overflows: it counts as rejected
        pres = Presentation.parse(["a"], ["a"])
        rho = find_representation(pres, GL2, [np.diag([1e-3, 1.0])])
        assert np.linalg.norm(rho.images[0] - np.eye(2)) < 1e-12

    def test_no_convergence_reported(self):
        # relator a^100 at diag(2, 1): each full step takes about 1/100 off
        # log 2, so the 50-iteration budget ends near exp(100 log 2 - 50) - 1
        pres = Presentation.parse(["a"], ["a^100"])
        with pytest.raises(NoConvergence, match="after 50 iterations") as info:
            find_representation(pres, GL2, [np.diag([2.0, 1.0])])
        assert np.exp(15) < info.value.residual < np.exp(25)


@pytest.mark.parametrize("shape", [(4,), (12, 4), (64, 6)], ids=str)
@pytest.mark.parametrize("kind,n", [("SL", 2), ("SL", 3), ("GL", 2), ("GL", 3)])
def test_ad_matrix_matches_the_product_definition(kind, n, shape):
    basis = lie_algebra_basis(GroupSpec(kind, n))
    rng = np.random.default_rng(10 * n + len(shape))

    def draw():
        return rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))

    g, left, right = draw(), draw(), draw()
    eye = np.eye(n)
    for pair in ((left, right), (g, np.linalg.inv(g)), (eye, right), (left, eye)):
        ref = ad_by_products(basis, *pair)
        got = _ad_matrix(basis, *pair)
        assert got.shape == ref.shape == shape + (basis.dim, basis.dim)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestDampedNewton:
    """Newton on the scalar problem x^2 = 4, its trials recorded.  A trial
    farther than 10 from 0 is non-finite, and so is every trial of a
    poisoned problem."""

    @staticmethod
    def solve(monkeypatch, x0, trials, max_iter=50, poisoned=False):
        def trial(x, step):
            x = x + step
            trials.append(complex(x[0]))
            finite = abs(x[0]) <= 10 and not poisoned
            return x, x ** 2 - 4 if finite else np.full(1, np.nan)

        monkeypatch.setattr(matgroup, "_NEWTON_ITERATIONS", max_iter)
        x0 = np.array([x0], dtype=complex)
        x = _damped_newton(x0, x0 ** 2 - 4, trial, lambda x: 2 * x[:, None],
                           matgroup.DEFAULT_TOL)
        return x[0]

    def test_overflowing_step_is_halved(self, monkeypatch):
        # the full first step from 0.05 lands near 40, where the trial is not
        # finite: it is halved until finite and smaller, here 4 times
        trials = []
        assert abs(self.solve(monkeypatch, 0.05, trials) - 2) <= 1e-12
        full = (4 - 0.05 ** 2) / 0.1
        assert np.array(trials[:5]) - 0.05 == pytest.approx(
            full * 0.5 ** np.arange(5), rel=1e-12)
        assert abs(trials[4]) < 10 < abs(trials[2])

    def test_stall_on_a_non_finite_trial(self, monkeypatch):
        # every trial is rejected: 40 halvings, then the residual at the start
        trials = []
        with pytest.raises(NoConvergence, match="backtracking stalled") as info:
            self.solve(monkeypatch, 3.0, trials, poisoned=True)
        assert info.value.residual == 5.0
        assert len(trials) == 40

    def test_iteration_budget_names_its_row(self, monkeypatch):
        # a one-iteration budget, set on the module: one full step from 3 to
        # 3 - 5/6, whose residual the error names
        trials = []
        with pytest.raises(NoConvergence, match="after 1 iterations") as info:
            self.solve(monkeypatch, 3.0, trials, 1)
        assert trials == [pytest.approx(3 - 5 / 6, rel=1e-15)]
        assert info.value.residual == pytest.approx((3 - 5 / 6) ** 2 - 4, rel=1e-14)


# Gauss-Newton iterations (one solve_lsq each) of find_representation from
# the seeded points of conftest.random_point moved by 1e-2 of noise.
_ITERATIONS = {("SL", 3, 3, 0): 4, ("SL", 3, 3, 2): 4}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("kind,n", [("SL", 2), ("GL", 2), ("SL", 3)])
def test_find_representation_iteration_count(kind, n, genus, seed, monkeypatch):
    rho, rng = random_point(genus, seed, kind, n)
    start = [m + 1e-2 * rng.standard_normal((n, n)) for m in rho.images]
    solves = []
    solve_lsq = matgroup.solve_lsq
    monkeypatch.setattr(matgroup, "solve_lsq",
                        lambda a, b: solves.append(1) or solve_lsq(a, b))
    found = find_representation(rho.presentation, rho.group, start)
    assert len(solves) == _ITERATIONS.get((kind, n, genus, seed), 3)
    r = rho.presentation.relators[0]
    assert np.linalg.norm(evaluate_word(found, r) - np.eye(n)) <= 1e-11


class TestConjugationAndIrreducibility:
    def test_conjugate_preserves_relator(self, genus2_rep):
        g = np.array([[1.0, 2.0], [0.5, 2.0]])
        rho_c = conjugate_representation(genus2_rep, g)
        r = genus2_rep.presentation.relators[0]
        assert np.linalg.norm(evaluate_word(rho_c, r) - np.eye(2)) < 1e-10

    def test_irreducible_fixtures(self, genus2_rep, f2_rep, torus_rep):
        assert is_irreducible(genus2_rep)
        assert is_irreducible(f2_rep)
        assert not is_irreducible(torus_rep)

    def test_nonsemisimple_reducible_detected(self):
        # common eigenline but trivial H^0: the H^0 test alone would miss it
        pres = Presentation.free(["a", "b"])
        a = np.array([[2.0, 1.0], [0.0, 0.5]])
        b = np.array([[3.0, 0.0], [0.0, 1.0 / 3.0]])
        rho = Representation(pres, SL2, [a, b])
        assert h0_dim(rho) == 0
        assert not is_irreducible(rho)

    def test_gl_point_is_irreducible(self):
        # the centre of gl(2) lies in H^0 at every GL point, irreducible or not
        rho, _ = random_point(2, 0, kind="GL")
        assert h0_dim(rho) == 1
        assert is_irreducible(rho)

    def test_sl3_invariant_plane_detected(self):
        # images [[A, v], [0, 1]] with A in SL(2) fix the plane of e_1, e_2
        rng = np.random.default_rng(5)

        def block():
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = np.eye(3, dtype=complex)
            m[:2, :2] = matrix_exp(0.5 * (x - np.trace(x) / 2 * np.eye(2)))
            m[:2, 2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            return m

        rho = Representation(Presentation.free(["a", "b"]), SL3, [block(), block()])
        assert h0_dim(rho) == 0
        assert not is_irreducible(rho)
