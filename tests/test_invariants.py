import numpy as np
import pytest

from charforms import (
    GroupSpec,
    check_invariance,
    combination,
    evaluate,
    killing_form,
    lie_algebra_basis,
    power_trace,
    trace_form,
)
from charforms.errors import DegreeMismatch, InvalidInput, natural_int, positive_int
from charforms.invariants import polynomial_from_json, polynomial_to_json

from oracles import polarize

SL2 = GroupSpec("SL", 2)
SL3 = GroupSpec("SL", 3)


@pytest.fixture(scope="module")
def sl2_basis():
    return lie_algebra_basis(SL2)


def random_coords(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


class TestEvaluate:
    def test_trace_form_value(self, sl2_basis):
        # X = H: tr(H^2) = 2
        x = np.array([0.0, 0.0, 1.0])
        assert evaluate(trace_form(), sl2_basis, x) == pytest.approx(2.0)

    def test_power_trace_matches_numpy(self, sl2_basis):
        rng = np.random.default_rng(0)
        x = random_coords(rng, 3)
        m = sl2_basis.matrix_from_coords(x)
        for n in (2, 3, 4):
            assert evaluate(power_trace(n), sl2_basis, x) == pytest.approx(
                complex(np.trace(np.linalg.matrix_power(m, n))))

    def test_odd_power_trace_vanishes_on_sl2(self, sl2_basis):
        # sl(2) has no odd invariants: tr(X^3) = 0 identically
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = random_coords(rng, 3)
            assert abs(evaluate(power_trace(3), sl2_basis, x)) < 1e-12

    def test_killing_proportional_to_trace_form(self, sl2_basis):
        # on sl(n) the Killing form is 2n tr(XY)
        rng = np.random.default_rng(2)
        for group, factor in ((SL2, 4.0), (SL3, 6.0)):
            basis = lie_algebra_basis(group)
            x = random_coords(rng, basis.dim)
            k = evaluate(killing_form(), basis, x)
            t = evaluate(trace_form(), basis, x)
            assert k == pytest.approx(factor * t, rel=1e-10)

    def test_combination(self, sl2_basis):
        phi = combination([(2.0, trace_form()), (-0.5, power_trace(2))])
        rng = np.random.default_rng(3)
        x = random_coords(rng, 3)
        expected = 1.5 * evaluate(power_trace(2), sl2_basis, x)
        assert evaluate(phi, sl2_basis, x) == pytest.approx(expected)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatch):
            combination([(1.0, trace_form()), (1.0, power_trace(3))])


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


def test_json_roundtrip():
    for phi in (trace_form(), killing_form(), power_trace(3),
                combination([(1.0 + 2.0j, trace_form()), (-1.0, killing_form())])):
        assert polynomial_from_json(polynomial_to_json(phi)) == phi


def test_trace_form_is_power_trace_two(sl2_basis):
    assert trace_form() == power_trace(2)
    assert polynomial_from_json({"kind": "trace_form"}) == power_trace(2)
    assert polynomial_to_json(trace_form()) == {"kind": "power_trace", "n": 2}


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
