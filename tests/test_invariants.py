import itertools

import numpy as np
import pytest
import scipy.linalg

import charforms.invariants
from charforms import (
    GroupSpec,
    check_invariance,
    combination,
    killing_form,
    lie_algebra_basis,
    power_trace,
    symmetric_tensor,
    trace_form,
)
from charforms.errors import DegreeMismatch, InvalidInput, natural_int, positive_int
from charforms.invariants import polynomial_from_json

from oracles import ad_by_products, evaluate, polarize

SL2 = GroupSpec("SL", 2)
SL3 = GroupSpec("SL", 3)
GL2 = GroupSpec("GL", 2)
PHIS = [power_trace(2), power_trace(3), power_trace(4), killing_form(),
        combination([(2.0 - 1.0j, trace_form()), (0.5, killing_form())])]


@pytest.fixture(scope="module")
def sl2_basis():
    return lie_algebra_basis(SL2)


def random_coords(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def phi_at(phi, basis, *xs):
    """tilde-Phi(x_1, ..., x_n) read from the library's tensor, the one form in
    which it uses Phi; one argument x gives Phi(x) = T[x, ..., x]."""
    t = symmetric_tensor(phi, basis)
    for x in xs if len(xs) > 1 else xs * phi.degree:
        t = t @ x
    return complex(t)


class TestEvaluate:
    """Values of Phi read from ``symmetric_tensor``."""

    def test_trace_form_value(self, sl2_basis):
        # X = H: tr(H^2) = 2
        x = np.array([0.0, 0.0, 1.0])
        assert phi_at(trace_form(), sl2_basis, x) == pytest.approx(2.0)

    def test_power_trace_matches_numpy(self, sl2_basis):
        rng = np.random.default_rng(0)
        x = random_coords(rng, 3)
        m = sl2_basis.matrix_from_coords(x)
        for n in (2, 3, 4):
            assert phi_at(power_trace(n), sl2_basis, x) == pytest.approx(
                complex(np.trace(np.linalg.matrix_power(m, n))))

    def test_odd_power_trace_vanishes_on_sl2(self, sl2_basis):
        # sl(2) has no odd invariants: tr(X^3) = 0 identically
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = random_coords(rng, 3)
            assert abs(phi_at(power_trace(3), sl2_basis, x)) < 1e-12

    def test_killing_proportional_to_trace_form(self, sl2_basis):
        # on sl(n) the Killing form is 2n tr(XY)
        rng = np.random.default_rng(2)
        for group, factor in ((SL2, 4.0), (SL3, 6.0)):
            basis = lie_algebra_basis(group)
            x = random_coords(rng, basis.dim)
            k = phi_at(killing_form(), basis, x)
            t = phi_at(trace_form(), basis, x)
            assert k == pytest.approx(factor * t, rel=1e-10)

    def test_combination(self, sl2_basis):
        phi = combination([(2.0, trace_form()), (-0.5, power_trace(2))])
        rng = np.random.default_rng(3)
        x = random_coords(rng, 3)
        expected = 1.5 * phi_at(power_trace(2), sl2_basis, x)
        assert phi_at(phi, sl2_basis, x) == pytest.approx(expected)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatch):
            combination([(1.0, trace_form()), (1.0, power_trace(3))])


@pytest.mark.parametrize("group", [SL2, SL3, GL2], ids=str)
@pytest.mark.parametrize("phi", PHIS, ids=lambda phi: f"{phi.kind}-{phi.degree}")
def test_tensor_matches_the_oracles(group, phi):
    """T[x, ..., x] is the oracle's Phi(x), from matrix powers or ad X, and
    T[x, y, ...] is its polarization, from 2^n - 1 evaluations of Phi."""
    basis = lie_algebra_basis(group)
    rng = np.random.default_rng(11)
    pol = polarize(phi, basis)
    for _ in range(3):
        xs = [random_coords(rng, basis.dim) for _ in range(phi.degree)]
        scale = np.prod([np.linalg.norm(x) for x in xs])
        assert abs(phi_at(phi, basis, xs[0]) - evaluate(phi, basis, xs[0])) <= (
            1e-12 * np.linalg.norm(xs[0]) ** phi.degree)
        assert abs(phi_at(phi, basis, *xs) - pol(*xs)) <= 1e-11 * scale


class TestPolarize:
    def test_diagonal_recovers_polynomial(self, sl2_basis):
        rng = np.random.default_rng(4)
        for phi in (trace_form(), power_trace(3), killing_form()):
            pol = polarize(phi, sl2_basis)
            x = random_coords(rng, 3)
            args = [x] * phi.degree
            assert pol(*args) == pytest.approx(
                evaluate(phi, sl2_basis, x), abs=1e-10)

    def test_symmetry_and_linearity(self, sl2_basis):
        pol = polarize(power_trace(3), sl2_basis)
        rng = np.random.default_rng(5)
        x, y, z = (random_coords(rng, 3) for _ in range(3))
        assert pol(x, y, z) == pytest.approx(pol(z, x, y), abs=1e-10)
        lam = 1.7 - 0.3j
        assert pol(lam * x, y, z) == pytest.approx(lam * pol(x, y, z), abs=1e-10)

    def test_trace_form_polarization_explicit(self, sl2_basis):
        # polarization of tr(X^2) is tr(XY)
        pol = polarize(trace_form(), sl2_basis)
        rng = np.random.default_rng(6)
        x, y = random_coords(rng, 3), random_coords(rng, 3)
        mx = sl2_basis.matrix_from_coords(x)
        my = sl2_basis.matrix_from_coords(y)
        assert pol(x, y) == pytest.approx(complex(np.trace(mx @ my)), abs=1e-10)


def test_check_invariance(sl2_basis):
    rng = np.random.default_rng(7)
    for phi in (trace_form(), power_trace(4), killing_form()):
        assert check_invariance(phi, sl2_basis, 20, rng) < 1e-10


def _invariance_by_samples(value, basis, samples, rng):
    """check_invariance one sample at a time, from its definition: draw X re,
    X im, g re and g im, then |Phi(g X g^-1) - Phi(X)| with Phi = ``value``,
    scipy's expm and Ad g from explicit products."""
    worst = 0.0
    for _ in range(samples):
        x = random_coords(rng, basis.dim)
        x = x / np.linalg.norm(x)
        y = random_coords(rng, basis.dim)
        y = y / max(np.linalg.norm(y), 1.0)
        g = scipy.linalg.expm(basis.matrix_from_coords(y))
        ad_g = ad_by_products(basis, g, np.linalg.inv(g))
        worst = max(worst, abs(value(ad_g @ x) - value(x)))
    return worst


@pytest.mark.parametrize("group", [SL2, SL3, GL2], ids=str)
@pytest.mark.parametrize("phi", PHIS, ids=lambda phi: f"{phi.kind}-{phi.degree}")
def test_check_invariance_is_one_stacked_pass(group, phi, monkeypatch):
    """All 20 samples go through one matrix_exp; the deviation equals the
    per-sample definition with the oracle's Phi on the same seed, and the
    rng is left where the per-sample draws leave it."""
    basis = lie_algebra_basis(group)
    calls = []
    exp = charforms.invariants.matrix_exp
    monkeypatch.setattr(charforms.invariants, "matrix_exp",
                        lambda m: (calls.append(m.shape), exp(m))[1])
    stacked, by_samples = np.random.default_rng(5), np.random.default_rng(5)
    dev = check_invariance(phi, basis, 20, stacked)
    oracle = lambda x: evaluate(phi, basis, x)
    assert abs(dev - _invariance_by_samples(oracle, basis, 20, by_samples)) <= 1e-12
    assert calls == [(20, group.n, group.n)]
    assert stacked.standard_normal() == by_samples.standard_normal()


@pytest.mark.parametrize("degree", [2, 3])
def test_check_invariance_reads_every_sample(degree, monkeypatch):
    """With a random symmetric tensor in place of Phi's, which is not
    Ad-invariant, the deviation is of order 1 and equals the per-sample
    definition to 1e-12 relative: every sample's X and g are drawn, moved
    and contracted as the definition says."""
    basis = lie_algebra_basis(SL2)
    t = np.random.default_rng(9).standard_normal((3,) * degree)
    t = sum(t.transpose(p) for p in itertools.permutations(range(degree)))
    monkeypatch.setattr(charforms.invariants, "symmetric_tensor", lambda phi, b: t)

    def value(x):
        v = t
        for _ in range(degree):
            v = v @ x
        return complex(v)

    dev = check_invariance(power_trace(degree), basis, 20, np.random.default_rng(5))
    ref = _invariance_by_samples(value, basis, 20, np.random.default_rng(5))
    assert ref > 0.1 and abs(dev - ref) <= 1e-12 * ref


def test_json_reads_each_kind():
    payloads = [
        ({"kind": "power_trace", "n": 2}, trace_form()),
        ({"kind": "killing"}, killing_form()),
        ({"kind": "power_trace", "n": 3}, power_trace(3)),
        ({"kind": "combo", "terms": [
            {"coeff": [1.0, 2.0], "kind": "power_trace", "n": 2},
            {"coeff": [-1.0, 0.0], "kind": "killing"}]},
         combination([(1.0 + 2.0j, trace_form()), (-1.0, killing_form())])),
    ]
    for data, phi in payloads:
        assert polynomial_from_json(data) == phi


def test_trace_form_is_power_trace_two(sl2_basis):
    assert trace_form() == power_trace(2)
    assert polynomial_from_json({"kind": "trace_form"}) == power_trace(2)


@pytest.mark.parametrize("coeff", [[1.0, 0.0, 5.0], [float("inf"), 0.0], [1.0],
                                   [True, False], "1"])
def test_json_combo_coefficient_must_be_one_finite_pair(coeff):
    with pytest.raises(InvalidInput, match="combo 'coeff'"):
        polynomial_from_json({"kind": "combo", "terms": [
            {"coeff": coeff, "kind": "trace_form"}]})


@pytest.mark.parametrize("n", [3.5, 0, -2, False, "3", [3]])
def test_json_power_trace_degree_must_be_a_positive_integer(n):
    with pytest.raises(InvalidInput):
        polynomial_from_json({"kind": "power_trace", "n": n})
    assert polynomial_from_json({"kind": "power_trace", "n": 3.0}) == power_trace(3)


def test_positive_int_is_strict():
    for good in (1, 3, 3.0):
        assert positive_int(good, "x") == good and type(positive_int(good, "x")) is int
    for bad in (2.7, 0, -1, 0.0, True, "3", None, float("inf"), float("nan"), 10j,
                np.int64(3)):
        with pytest.raises(InvalidInput, match="x must be a positive integer"):
            positive_int(bad, "x")


def test_natural_int_is_strict_and_admits_zero():
    for good in (0, 0.0, 2, 2.0):
        assert natural_int(good, "x") == good and type(natural_int(good, "x")) is int
    for bad in (1.5, -1, -1.0, True, False, "1", None, float("inf"), np.int64(1)):
        with pytest.raises(InvalidInput, match="x must be a non-negative integer"):
            natural_int(bad, "x")
