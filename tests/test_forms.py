import importlib
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import charforms
from charforms import (
    BarChain,
    GroupSpec,
    Presentation,
    Representation,
    Word,
    cocycle_space,
    combination,
    conjugation_invariance,
    contraction_suite,
    eta,
    gram_matrix,
    killing_form,
    make_context,
    parse_word,
    power_trace,
    trace_form,
)
from charforms.cohomology import identity_values, walk_words
from charforms.errors import DegreeMismatch, InvalidInput, NotEndomorphism
from charforms.forms import (
    EtaContext,
    _conjugation_pairs,
    _cycle_pairing,
    _draws,
    _paired,
    endomorphism_pullback,
    random_cocycle,
)
from charforms.invariants import symmetric_tensor
from charforms.matgroup import (
    coboundary,
    lie_algebra_basis,
    matrix_exp,
)

from conftest import random_point
from oracles import ad_product_pairing, conjugate_representation, reference_eta

SL2 = GroupSpec("SL", 2)

# Deterministic example streams: a property failure reproduces on every run.
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# Independent brute-force oracle.  Everything below re-derives the pairing
# from scratch with plain matrix arithmetic: its own free reduction, word
# evaluation, cocycle extension, fundamental cycle and polarized trace form.
# It shares no code path with the library beyond reading generator matrices
# and cocycle coordinate values out of the fixtures.

_E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_H = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SL2_BASIS = [_E12, _E21, _H]


def _oracle_reduce(letters):
    out = []
    for let in letters:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return out


def _oracle_eval(mats, letters):
    out = np.eye(2, dtype=complex)
    for g, s in letters:
        m = mats[g] if s == 1 else np.linalg.inv(mats[g])
        out = out @ m
    return out


def _oracle_cocycle(mats, values, letters):
    """sigma on a word by the rule sigma(uv) = sigma(u) + u . sigma(v)."""
    if not letters:
        return np.zeros((2, 2), dtype=complex)
    g, s = letters[0]
    if s == 1:
        head = values[g]
        rest = letters[1:]
        conj = mats[g]
    else:
        inv = np.linalg.inv(mats[g])
        head = -(inv @ values[g] @ mats[g])
        rest = letters[1:]
        conj = inv
    tail = _oracle_cocycle(mats, values, rest)
    return head + conj @ tail @ np.linalg.inv(conj)


def _oracle_fundamental_cycle(genus):
    """Terms ((letters1, letters2), coeff) of the bar 2-cycle."""
    relator = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        relator += [(a, 1), (b, 1), (a, -1), (b, -1)]
    terms = []
    prefix = [relator[0]]
    for j in range(1, 4 * genus):
        terms.append(((tuple(prefix), (relator[j],)), 1))
        prefix = _oracle_reduce(prefix + [relator[j]])
    for i in range(genus):
        terms.append(((((2 * i, 1),), ((2 * i, -1),)), -1))
        terms.append(((((2 * i + 1, 1),), ((2 * i + 1, -1),)), -1))
    terms.append((((), ()), -(2 * genus - 1)))
    return terms


def oracle_eta(mats, sigma_mats, tau_mats, genus):
    """Goldman pairing via direct bar-complex summation with tr(XY)."""
    total = 0.0 + 0.0j
    for (w1, w2), c in _oracle_fundamental_cycle(genus):
        s1 = _oracle_cocycle(mats, sigma_mats, list(w1))
        g1 = _oracle_eval(mats, list(w1))
        t2 = _oracle_cocycle(mats, tau_mats, list(w2))
        total += c * np.trace(s1 @ (g1 @ t2 @ np.linalg.inv(g1)))
    return total


def _to_matrices(rho, sigma):
    values = np.reshape(sigma, (rho.p, 3))
    return [sum(values[k][j] * _SL2_BASIS[j] for j in range(3))
            for k in range(rho.p)]


_seeds = st.integers(0, 2**32 - 1)
_letters = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
_words = st.lists(_letters, min_size=1, max_size=4).map(Word.of).filter(
    lambda w: w.letters)


def _chains(n):
    """Terms of a random n-chain of F_2: up to four n-tuples of words."""
    return st.dictionaries(st.tuples(*[_words] * n), st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=4)


class TestAssembledForm:
    """The assembled evaluator against the two independent references."""

    @PROPERTY
    @given(genus=st.integers(1, 3), seed=_seeds)
    def test_gram_matches_oracle(self, genus, seed):
        rho, _ = random_point(genus, seed)
        basis = cocycle_space(rho).h1
        g, _ = gram_matrix(make_context(rho, trace_form()), basis)
        mats = [_to_matrices(rho, s) for s in basis.T]
        ora = np.array([[oracle_eta(list(rho.images), mi, mj, genus)
                         for mj in mats] for mi in mats])
        assert np.abs(g - ora).max() <= 1e-11 * np.abs(ora).max()

    @pytest.mark.parametrize("kind,size", [("SL", 3), ("GL", 2)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @PROPERTY
    @given(seed=_seeds, data=st.data())
    def test_power_trace_on_free_group(self, n, kind, size, seed, data):
        rho, rng = random_point(0, seed, kind, size, free=2)
        ctx = make_context(rho, power_trace(n), BarChain.of(n, data.draw(_chains(n))))
        sigmas = [rng.standard_normal(2 * rho.dim_g)
                  + 1j * rng.standard_normal(2 * rho.dim_g) for _ in range(n)]
        value, (ref, scale) = eta(ctx, *sigmas), reference_eta(ctx, *sigmas)
        if not ctx.tensor.any():  # tr vanishes on sl(n): the oracle sums rounding
            assert value == 0
        else:
            assert abs(value - ref) <= 1e-11 * scale

    @PROPERTY
    @given(seed=_seeds)
    def test_killing_on_genus2_gl2(self, seed):
        rho, rng = random_point(2, seed, "GL", 2)
        ctx = make_context(rho, killing_form())
        space = cocycle_space(rho)
        s, t = random_cocycle(space, rng), random_cocycle(space, rng)
        ref, scale = reference_eta(ctx, s, t)
        assert abs(eta(ctx, s, t) - ref) <= 1e-11 * scale


def _count_calls(monkeypatch, calls, name, fn):
    """Count calls of ``fn`` at every charforms binding site."""
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    for mod in [charforms] + [importlib.import_module(f"charforms.{m}") for m in (
            "cohomology", "invariants", "forms", "charts", "families", "cli")]:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, counted)


def test_gram_assembles_once_per_context(monkeypatch):
    """Deterministic cost guard: the Gram matrix on a 32-dimensional H^1,
    again, and a later eta on the same context each pair once, walking the
    cycle words once on the values they pair."""
    rho, _ = random_point(3, 0, "SL", 3)
    basis = cocycle_space(rho).h1
    assert basis.shape[1] == 32
    calls = Counter()
    _count_calls(monkeypatch, calls, "walk", charforms.cohomology.walk_words)
    _count_calls(monkeypatch, calls, "pairing", charforms.forms._cycle_pairing)
    ctx = make_context(rho, trace_form())
    g, rank = gram_matrix(ctx, basis)
    again, _ = gram_matrix(ctx, basis)
    pairwise = eta(ctx, basis[:, 0], basis[:, 1])
    assert rank == 32
    assert np.array_equal(g, again)
    assert pairwise == pytest.approx(g[0, 1], abs=1e-12 * np.abs(g).max())
    assert calls == Counter(walk=3, pairing=3)


def _random_table(words, shape, d, k, seed):
    """Random (Ad, sigma) entries (*shape, d, d) and (*shape, d, k) per word."""
    rng = np.random.default_rng(seed)
    draw = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
    return {w: (draw(*shape, d, d), draw(*shape, d, k)) for w in words}


class TestCyclePairing:
    """The one pairing kernel on stacks of points, in degree 3."""

    cycle = BarChain.of(3, {(parse_word("a b", "ab"), parse_word("b", "ab"),
                             parse_word("a^-1", "ab")): 2,
                            (parse_word("b^2", "ab"), parse_word("a", "ab"),
                             parse_word("a b^-1", "ab")): -1,
                            (Word.identity(), parse_word("a", "ab"),
                             parse_word("b", "ab")): 1})
    words = cycle.words

    def test_stack_gives_the_values_at_each_point(self):
        tensor = symmetric_tensor(power_trace(3), lie_algebra_basis(GroupSpec("SL", 3)))
        table = _random_table(self.words, (5,), 8, 4, seed=11)
        stacked = _cycle_pairing(self.cycle, tensor, table)
        assert stacked.shape == (5, 4, 4, 4)
        for i in range(5):
            point = _cycle_pairing(self.cycle, tensor,
                                   {w: (ad[i], s[i]) for w, (ad, s) in table.items()})
            assert np.abs(stacked[i] - point).max() <= 1e-14 * np.abs(point).max()

    def test_empty_stack(self):
        tensor = symmetric_tensor(power_trace(3), lie_algebra_basis(GroupSpec("GL", 2)))
        table = _random_table(self.words, (0,), 4, 3, seed=12)
        assert _cycle_pairing(self.cycle, tensor, table).shape == (0, 3, 3, 3)

    def test_degree_is_the_tensor_order(self):
        table = _random_table(self.words, (), 3, 2, seed=13)
        with pytest.raises(DegreeMismatch):
            _cycle_pairing(self.cycle, np.eye(3), table)


@pytest.mark.parametrize("n", [2, 3])
def test_zero_chain_is_refused(f2_rep, n):
    """The zero n-chain has no words to give the shape of a zero value: eta
    on it raises InvalidInput, not an AttributeError from the empty sum."""
    ctx = make_context(f2_rep, power_trace(n), BarChain.of(n, {}))
    sigma = random_cocycle(cocycle_space(f2_rep), np.random.default_rng(0))
    with pytest.raises(InvalidInput, match=f"zero {n}-chain"):
        eta(ctx, *[sigma] * n)


def test_degree_three_eta_walks_once_per_context(monkeypatch):
    """Each of two degree-3 eta calls on one context walks the cycle words
    once, on its own cocycles, and pairs once."""
    rho, rng = random_point(0, 3, "SL", 3, free=2)
    ctx = make_context(rho, power_trace(3), TestCyclePairing.cycle)
    calls = Counter()
    _count_calls(monkeypatch, calls, "walk", charforms.cohomology.walk_words)
    _count_calls(monkeypatch, calls, "pairing", charforms.forms._cycle_pairing)
    sigmas = [rng.standard_normal(16) + 0j for _ in range(6)]
    first, second = eta(ctx, *sigmas[:3]), eta(ctx, *sigmas[3:])
    assert calls == Counter(walk=2, pairing=2)
    assert first != second


def _substituted_identity_walk(ctx, stacked):
    """The pairing as the form context once built it: the identity walk
    (Ad rho(w), J_w) of the cycle words, each J_w replaced by J_w S."""
    rho = ctx.rho
    table = walk_words(rho._at.ad, rho._at.ad_inv, identity_values(rho), ctx.cycle.words)
    return _cycle_pairing(ctx.cycle, ctx.tensor,
                          {w: (ad, jac @ stacked) for w, (ad, jac) in table.items()})


@pytest.mark.parametrize("shape", [(), (4,)])
@pytest.mark.parametrize("degree", [2, 3])
def test_paired_equals_the_substituted_identity_walk(degree, shape):
    """``_paired``, which walks the values it pairs, equals the walk of the
    identity values with J_w S in place of J_w, to 1e-13 relative, for
    unstacked S (p dim g, 5) and a stack (4, p dim g, 5)."""
    if degree == 2:
        rho, rng = random_point(2, 5, "SL", 3)
        ctx = make_context(rho, trace_form())
    else:
        rho, rng = random_point(0, 5, "SL", 3, free=2)
        ctx = make_context(rho, power_trace(3), TestCyclePairing.cycle)
    size = shape + (rho.p * rho.dim_g, 5)
    s = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    lib, ref = _paired(ctx, s), _substituted_identity_walk(ctx, s)
    assert lib.shape == ref.shape == shape + (5,) * degree
    assert np.abs(lib - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(degree=st.integers(1, 3), n=st.sampled_from([2, 3]),
       batch=st.sampled_from([(), (3,)]), seed=st.integers(0, 2 ** 16))
def test_pairing_of_partial_products_is_the_ad_product_formula(degree, n, batch, seed):
    """``_cycle_pairing`` on the ``walk_words`` table of random generator
    values, no cocycles, equals the term-by-term Ad-product formula of
    ``oracles.ad_product_pairing`` to 1e-12 of its scale, on a random bar
    chain over F_2 (not a cycle: 1-4 terms of words of up to 3 letters,
    coefficients -3..3) in SL(n), unstacked and on a stack of 3 points."""
    rng = np.random.default_rng(seed)
    word = lambda: Word.of([(int(rng.integers(0, 2)), int(rng.choice([-1, 1])))
                            for _ in range(rng.integers(0, 4))])
    chain = BarChain.of(degree, {tuple(word() for _ in range(degree)):
                                 int(rng.choice([-3, -2, -1, 1, 2, 3]))
                                 for _ in range(rng.integers(1, 5))})
    points = [random_point(0, int(s), "SL", n, free=2)[0]
              for s in rng.integers(0, 2 ** 16, batch[0] if batch else 1)]
    d, k = points[0].dim_g, 2
    draw = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
    tensor, values = draw(*(d,) * degree), draw(len(points), 2, d, k)
    ad, ad_inv = (np.stack([getattr(rho._at, a) for rho in points]) for a in ("ad", "ad_inv"))
    if not batch:
        ad, ad_inv, values = ad[0], ad_inv[0], values[0]
    lib = _cycle_pairing(chain, tensor, walk_words(ad, ad_inv, values, chain.words))
    assert lib.shape == batch + (k,) * degree
    for i, rho in enumerate(points):
        ref, scale = ad_product_pairing(rho, values[i] if batch else values, tensor, chain)
        assert np.abs((lib[i] if batch else lib) - ref).max() <= 1e-12 * scale


class TestOracleEquivalence:
    @pytest.mark.parametrize("fixture,genus", [("torus_rep", 1), ("genus2_rep", 2)])
    def test_eta_matches_oracle(self, fixture, genus, request):
        rho = request.getfixturevalue(fixture)
        ctx = make_context(rho, trace_form())
        space = cocycle_space(rho)
        rng = np.random.default_rng(10 + genus)
        worst = 0.0
        scale = 0.0
        for _ in range(25):
            s = random_cocycle(space, rng)
            t = random_cocycle(space, rng)
            s = (1.0 / np.linalg.norm(s)) * s
            t = (1.0 / np.linalg.norm(t)) * t
            lib = eta(ctx, s, t)
            ora = oracle_eta(list(rho.images), _to_matrices(rho, s),
                             _to_matrices(rho, t), genus)
            worst = max(worst, abs(lib - ora))
            scale = max(scale, abs(lib), abs(ora))
        # deviation relative to the scale of the sampled values
        assert worst / scale < 1e-11


class TestTorusValue:
    def test_hand_computed_pairing(self, torus_rep):
        # sigma(a) = H, sigma(b) = 0; tau(a) = 0, tau(b) = H; value is 2
        ctx = make_context(torus_rep, trace_form())
        sigma = np.array([0, 0, 1, 0, 0, 0], dtype=complex)
        tau = np.array([0, 0, 0, 0, 0, 1], dtype=complex)
        assert eta(ctx, sigma, tau) == pytest.approx(2.0, abs=1e-12)
        assert eta(ctx, tau, sigma) == pytest.approx(-2.0, abs=1e-12)


class TestStructure:
    def test_skew_on_diagonal(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        space = cocycle_space(genus2_rep)
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = random_cocycle(space, rng)
            assert abs(eta(ctx, s, s)) < 1e-9

    def test_descends_mod_coboundaries(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        space = cocycle_space(genus2_rep)
        rng = np.random.default_rng(1)
        s = random_cocycle(space, rng)
        t = random_cocycle(space, rng)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        db = coboundary(genus2_rep, v)
        base = eta(ctx, s, t)
        assert eta(ctx, s + db, t) == pytest.approx(base, abs=1e-9 * abs(base))

    def test_contraction_suite(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        report = contraction_suite(ctx, 20, np.random.default_rng(2))
        assert report["pass"]
        assert report["scale"] > 0.1

    def test_gram_rank_and_skewness(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        space = cocycle_space(genus2_rep)
        g, rank = gram_matrix(ctx, space.h1)
        assert rank == 6
        assert np.linalg.norm(g + g.T) / np.linalg.norm(g) < 1e-10

    def test_conjugation_invariance(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            g = matrix_exp(genus2_rep.basis.matrix_from_coords(
                x / max(np.linalg.norm(x), 1.0)))
            assert conjugation_invariance(ctx, g, 3, rng) < 1e-9

    def test_bilinearity(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        space = cocycle_space(genus2_rep)
        rng = np.random.default_rng(4)
        s, t, u = (random_cocycle(space, rng) for _ in range(3))
        lam = 0.7 - 1.1j
        lhs = eta(ctx, s + lam * u, t)
        rhs = eta(ctx, s, t) + lam * eta(ctx, u, t)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(abs(rhs), 1.0))

    def test_killing_is_four_times_trace(self, genus2_rep):
        ctx_t = make_context(genus2_rep, trace_form())
        ctx_k = make_context(genus2_rep, killing_form())
        space = cocycle_space(genus2_rep)
        rng = np.random.default_rng(5)
        s, t = random_cocycle(space, rng), random_cocycle(space, rng)
        assert eta(ctx_k, s, t) == pytest.approx(4 * eta(ctx_t, s, t), rel=1e-10)

    def test_degree_mismatch(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        space = cocycle_space(genus2_rep)
        with pytest.raises(DegreeMismatch):
            eta(ctx, space.h1[:, 0])


class TestEndomorphismPullback:
    def test_torus_swap_flips_sign(self, torus_rep):
        ctx = make_context(torus_rep, trace_form())
        names = torus_rep.presentation.generator_names
        images = (parse_word("b1", names), parse_word("a1", names))
        rng = np.random.default_rng(6)
        _, report = endomorphism_pullback(ctx, images, trials=5, rng=rng)
        assert report["ratio"] == pytest.approx(-1.0, abs=1e-8)

    def test_torus_shear_preserves(self, torus_rep):
        ctx = make_context(torus_rep, trace_form())
        names = torus_rep.presentation.generator_names
        images = (parse_word("a1 b1", names), parse_word("b1", names))
        rng = np.random.default_rng(7)
        _, report = endomorphism_pullback(ctx, images, trials=5, rng=rng)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-8)

    def test_residual_is_checked_once_at_the_point_tolerance(self):
        """The shear a1 -> a1 b1^6 at the commuting SL(2) pair A = exp(X),
        B = exp(-0.7 X): [A B^6, B] = [A, B] in the group, so the mapped
        relator's residual is rounding, 4.7e-11 with A and B from scipy's
        expm.  It is above the point's bound 1e-11 and is NotEndomorphism
        naming it, where a second check used to raise InvalidInput."""
        x = np.array([[2.0, 1.0], [0.3, -2.0]])
        rho = Representation(Presentation.surface(1), SL2,
                             [scipy.linalg.expm(x), scipy.linalg.expm(-0.7 * x)])
        names = rho.presentation.generator_names
        images = (parse_word("a1 b1^6", names), parse_word("b1", names))
        with pytest.raises(NotEndomorphism, match=r"relator residual 4\.7\d*e-11") as info:
            endomorphism_pullback(make_context(rho, trace_form()), images,
                                  trials=2, rng=np.random.default_rng(9))
        residual = float(str(info.value).split("residual ")[1].split()[0])
        assert residual > rho.tol.relator_bound

    def test_non_endomorphism_rejected(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        names = genus2_rep.presentation.generator_names
        # mapping every generator to a1 sends the relator to e but a1 b1 a2 b2
        # to a1^4 which is not trivial at rho... use a map breaking the relator
        images = tuple(parse_word(t, names)
                       for t in ("b1", "a1", "a2", "b2"))
        with pytest.raises(NotEndomorphism):
            endomorphism_pullback(ctx, images, trials=2,
                                  rng=np.random.default_rng(8))


def test_degree_one_pairing_matches_the_oracle():
    """phi = tr on F_2 in GL(2) against the 1-chain [a] - 2[b] + 3[ab]: eta
    equals the oracle's term-by-term pairing, and a stack of T trials pairs
    as T single calls."""
    rho, rng = random_point(0, 4, "GL", 2, free=2)
    a, b = Word.generator(0), Word.generator(1)
    ctx = make_context(rho, power_trace(1), BarChain.of(1, {(a,): 1, (b,): -2, (a * b,): 3}))
    pd = rho.p * rho.dim_g
    sigma = rng.standard_normal(pd) + 1j * rng.standard_normal(pd)
    ref, scale = reference_eta(ctx, sigma)
    assert abs(eta(ctx, sigma) - ref) <= 1e-13 * scale
    stack = rng.standard_normal((4, pd, 3)) + 1j * rng.standard_normal((4, pd, 3))
    pairs = _paired(ctx, stack)
    assert pairs.shape == (4, 3)
    for i in range(4):
        point = _paired(ctx, stack[i])
        assert np.abs(pairs[i] - point).max() <= 1e-14 * np.abs(point).max()


class TestStackedSuites:
    """Each randomized suite draws its trials as one stack and pairs it once
    per context."""

    @pytest.mark.parametrize("degree", [2, 3])
    def test_stacked_pairing_is_per_trial(self, genus2_rep, degree):
        """_paired on a stack (T, p dim g, k) equals T separate calls: degree 2
        at genus 2, degree 3 on TestCyclePairing's F_2 3-chain (not a cycle)."""
        if degree == 2:
            ctx, rng = make_context(genus2_rep, trace_form()), np.random.default_rng(20)
        else:
            rho, rng = random_point(0, 3, "SL", 3, free=2)
            ctx = make_context(rho, power_trace(3), TestCyclePairing.cycle)
        pd = ctx.rho.p * ctx.rho.dim_g
        stack = rng.standard_normal((4, pd, 3)) + 1j * rng.standard_normal((4, pd, 3))
        pairs = _paired(ctx, stack)
        assert pairs.shape == (4,) + (3,) * degree
        for i in range(4):
            point = _paired(ctx, stack[i])
            assert np.abs(pairs[i] - point).max() <= 1e-14 * np.abs(point).max()

    def test_walk_keeps_ad_at_the_point(self, genus2_rep, monkeypatch):
        """20 trials paired at one genus-2 SL(2) point: every Ad entry of the
        walk table is (d, d), once for all trials, and every sigma entry is
        (20, d, k)."""
        ctx, rng = make_context(genus2_rep, trace_form()), np.random.default_rng(22)
        pd, d = genus2_rep.p * genus2_rep.dim_g, genus2_rep.dim_g
        stack = rng.standard_normal((20, pd, 2)) + 1j * rng.standard_normal((20, pd, 2))
        tables, pairing = [], charforms.forms._cycle_pairing
        monkeypatch.setattr(charforms.forms, "_cycle_pairing", lambda cycle, tensor, table:
                            tables.append(table) or pairing(cycle, tensor, table))
        _paired(ctx, stack)
        table, = tables
        assert {ad.shape for ad, _ in table.values()} == {(d, d)}
        assert {sigma.shape for _, sigma in table.values()} == {(20, d, 2)}

    def test_contraction_in_degree_three(self):
        """The leading-axis stack in degree 3: on the F_2 3-chain a
        coboundary slot need not vanish, and the suite reports exactly
        |eta(dB, s_2, s_3)| and |eta(s_1, s_2, s_3)| of its own draws."""
        rho, _ = random_point(0, 3, "SL", 3, free=2)
        ctx = make_context(rho, power_trace(3), TestCyclePairing.cycle)
        space = cocycle_space(rho)
        report = contraction_suite(ctx, 4, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        draws = list(_draws(space, rng, 12).T)
        v = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        worst = max(abs(eta(ctx, coboundary(rho, v[:, t]), *draws[3 * t:3 * t + 2]))
                    for t in range(4))
        scale = max(abs(eta(ctx, draws[3 * t + 2], *draws[3 * t:3 * t + 2]))
                    for t in range(4))
        assert report["max_dev"] == pytest.approx(worst, rel=1e-12)
        assert report["scale"] == pytest.approx(scale, rel=1e-12)

    def test_conjugation_reads_the_pairs(self, genus2_rep):
        """The suite is the max over i of |eta at g rho g^-1 - eta at rho| on
        the pair (s_i, s_{T+i}) of its unit draws, here for a symmetric
        tensor that is not Ad-invariant, where eta(s_i, s_i) is not 0."""
        ctx = _non_invariant_context(genus2_rep)
        g = matrix_exp(genus2_rep.basis.matrix_from_coords([0.3, -0.2, 0.5]))
        dev = conjugation_invariance(ctx, g, 4, np.random.default_rng(23))
        s = _draws(cocycle_space(genus2_rep), np.random.default_rng(23), 8)
        s = [c / np.linalg.norm(c) for c in s.T]
        conj = [genus2_rep.basis.coords_from_matrix(
            g @ genus2_rep.basis.matrix_from_coords(t.reshape(4, 3)) @ np.linalg.inv(g)
        ).reshape(-1) for t in s]
        ctx_c = EtaContext(conjugate_representation(genus2_rep, g), ctx.phi,
                           ctx.tensor, ctx.cycle)
        expected = max(abs(eta(ctx_c, conj[i], conj[4 + i]) - eta(ctx, s[i], s[4 + i]))
                       for i in range(4))
        assert dev == pytest.approx(expected, rel=1e-10)

    def test_non_invariant_tensor_is_flagged(self, genus2_rep):
        """Negative control: the suite reports a deviation far above 1 for a
        symmetric tensor that is not Ad-invariant, against rounding for the
        trace form."""
        g = matrix_exp(genus2_rep.basis.matrix_from_coords([0.3, -0.2, 0.5]))
        good = conjugation_invariance(make_context(genus2_rep, trace_form()), g, 5,
                                      np.random.default_rng(24))
        bad = conjugation_invariance(_non_invariant_context(genus2_rep), g, 5,
                                     np.random.default_rng(24))
        assert good < 1e-9
        assert bad > 1.0

    def test_vanishing_form_fails_contraction(self, genus2_rep):
        """tr - Killing/4 is 0 on sl(2): every eta is 0, so the verdict is no
        pass, where 0 <= 1e-9 * 0 used to pass."""
        zero = combination([(1.0, trace_form()), (-0.25, killing_form())])
        report = contraction_suite(make_context(genus2_rep, zero), 5,
                                   np.random.default_rng(25))
        assert report["scale"] == 0.0 and report["max_dev"] == 0.0
        assert report["pass"] is False

    def test_no_trial_is_refused(self, genus2_rep, torus_rep):
        ctx = make_context(genus2_rep, trace_form())
        rng = np.random.default_rng(26)
        with pytest.raises(InvalidInput, match="at least one"):
            contraction_suite(ctx, 0, rng)
        with pytest.raises(InvalidInput, match="at least one"):
            conjugation_invariance(ctx, np.eye(2), 0, rng)
        names = torus_rep.presentation.generator_names
        with pytest.raises(InvalidInput, match="at least one"):
            endomorphism_pullback(make_context(torus_rep, trace_form()),
                                  (parse_word("b1", names), parse_word("a1", names)),
                                  rng, trials=0)

    def test_pullback_refuses_other_degrees(self, torus_rep):
        names = torus_rep.presentation.generator_names
        ctx = make_context(torus_rep, power_trace(3),
                           BarChain.of(3, {(Word.identity(),) * 3: 1}))
        with pytest.raises(DegreeMismatch, match="degree 2"):
            endomorphism_pullback(ctx, (parse_word("b1", names), parse_word("a1", names)),
                                  np.random.default_rng(27))

    def test_one_pairing_per_context(self, genus2_rep, torus_rep, monkeypatch):
        """Deterministic cost guard: each suite pairs once per context and
        never calls eta, whatever the number of trials, and each pairing
        walks the cycle words once; the pullback walks the image words once
        for all its cocycles."""
        ctx = make_context(genus2_rep, trace_form())
        g = matrix_exp(genus2_rep.basis.matrix_from_coords([0.3, -0.2, 0.5]))
        names = torus_rep.presentation.generator_names
        swap = (parse_word("b1", names), parse_word("a1", names))
        torus_ctx = make_context(torus_rep, trace_form())
        # walk the relators of both Fox Jacobians before counting
        assert cocycle_space(torus_rep).dims == (4, 2, 2)
        assert cocycle_space(genus2_rep).dims[2] == 6
        calls = Counter()
        _count_calls(monkeypatch, calls, "pairing", charforms.forms._cycle_pairing)
        _count_calls(monkeypatch, calls, "eta", charforms.forms.eta)
        _count_calls(monkeypatch, calls, "walk", charforms.cohomology.walk_words)
        contraction_suite(ctx, 20, np.random.default_rng(28))
        assert calls == Counter(pairing=1, walk=1)
        conjugation_invariance(ctx, g, 20, np.random.default_rng(29))
        assert calls == Counter(pairing=3, walk=3)
        endomorphism_pullback(torus_ctx, swap, np.random.default_rng(30), trials=20)
        # one walk of the image words, one of the cycle words at each point
        assert calls == Counter(pairing=5, walk=6)


class TestStackedConjugations:
    @pytest.mark.parametrize("invariant", [True, False])
    def test_stack_matches_the_per_g_loop(self, genus2_rep, invariant):
        """One stacked pass over 4 g equals, to 1e-12 times the scale, the
        per-g loop over conjugate_representation and eta, for the trace
        form and for a tensor that is not Ad-invariant (deviation of order
        one); Ad_g s is computed from matrices here."""
        rho = genus2_rep
        ctx = (make_context(rho, trace_form()) if invariant
               else _non_invariant_context(rho))
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        g = matrix_exp(rho.basis.matrix_from_coords(0.5 * x))
        s = np.stack([_draws(cocycle_space(rho), rng, 6) for _ in g])
        dev, scale = _conjugation_pairs(ctx, g, s)
        worst = size = 0.0
        for g_k, s_k in zip(g, s):
            s_k = [c / np.linalg.norm(c) for c in s_k.T]
            conj = [rho.basis.coords_from_matrix(
                g_k @ rho.basis.matrix_from_coords(t.reshape(4, 3)) @ np.linalg.inv(g_k)
            ).reshape(-1) for t in s_k]
            ctx_c = EtaContext(conjugate_representation(rho, g_k), ctx.phi,
                               ctx.tensor, ctx.cycle)
            for i in range(3):
                base = eta(ctx, s_k[i], s_k[3 + i])
                worst = max(worst, abs(eta(ctx_c, conj[i], conj[3 + i]) - base))
                size = max(size, abs(base))
        assert scale > 0.1 and abs(scale - size) <= 1e-12 * size
        assert abs(dev - worst) <= 1e-12 * size
        assert (dev < 1e-9) if invariant else (dev > 1.0)

    def test_one_point_record_and_one_walk_for_all_g(self, genus2_rep, monkeypatch):
        """The conjugated points are one stacked record and one walk, whatever
        the number of g, beside the one walk at rho: no Representation is
        built."""
        ctx = make_context(genus2_rep, trace_form())
        rng = np.random.default_rng(42)
        g = matrix_exp(genus2_rep.basis.matrix_from_coords(
            0.3 * rng.standard_normal((5, 3))))
        s = np.stack([_draws(cocycle_space(genus2_rep), rng, 6) for _ in g])
        calls = Counter()
        _count_calls(monkeypatch, calls, "walk", charforms.cohomology.walk_words)
        _count_calls(monkeypatch, calls, "pairing", charforms.forms._cycle_pairing)
        init = Representation.__init__
        monkeypatch.setattr(Representation, "__init__", lambda *a, **k: (
            calls.update(["representation"]), init(*a, **k))[1])
        _conjugation_pairs(ctx, g, s)
        assert calls == Counter(walk=2, pairing=2)


class TestCocycleShape:
    """A cocycle whose length is not p dim g (12 at the acceptance point) is
    refused with InvalidInput by every entry point that takes one."""

    def test_eta_and_gram(self, genus2_rep):
        ctx = make_context(genus2_rep, trace_form())
        space = cocycle_space(genus2_rep)
        s, t = space.z1[:, 0], space.z1[:, 1]
        with pytest.raises(InvalidInput, match="p dim g = 12"):
            eta(ctx, s.reshape(4, 3), t.reshape(4, 3))
        with pytest.raises(InvalidInput, match="p dim g = 12"):
            gram_matrix(ctx, space.h1.T)
        with pytest.raises(InvalidInput, match="p dim g = 12"):
            gram_matrix(ctx, space.h1[:, 0])
        assert gram_matrix(ctx, space.h1)[1] == 6


def _non_invariant_context(rho):
    """The degree-2 context at rho with a random symmetric tensor that is
    not Ad-invariant in place of the trace form's."""
    tensor = np.random.default_rng(22).standard_normal((rho.dim_g,) * 2)
    ctx = make_context(rho, trace_form())
    return EtaContext(rho, ctx.phi, tensor + tensor.T, ctx.cycle)
