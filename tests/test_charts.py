import itertools

import numpy as np
import pytest

from charforms import charts, cohomology, forms, matgroup, numeric
from charforms import (
    BarChain,
    Chart,
    GroupSpec,
    Word,
    cocycle_space,
    fundamental_two_cycle,
    power_trace,
    trace_form,
)
from charforms.charts import (
    _fd_d,
    _jet,
    _stencil,
    chart_closedness,
    eta_coefficients,
    fd_exterior_derivative,
    free_group_demo,
)
from charforms.errors import DegreeMismatch, InvalidInput, LeftChart, NoConvergence
from charforms.forms import gram_matrix, make_context, random_cocycle
from charforms.invariants import symmetric_tensor
from charforms.matgroup import Representation, _moved, evaluate_word
from charforms.numeric import Tolerances
from conftest import random_point

SL2 = GroupSpec("SL", 2)


def _retract(chart, t):
    """The chart point at t as a Representation, from its ``_solve``."""
    rho = chart.center
    return Representation(rho.presentation, rho.group,
                          charts._solve(chart, t)[1].images, check=False)


def _transported(chart, t, i):
    """The exact tangent of the i-th chart curve at t, stacked (p * dim g,):
    ``_tangents`` at the ``_solve`` of t."""
    return _solved_tangents(chart, t)[..., i].reshape(-1)


def _solved_tangents(chart, t):
    """``_tangents`` (p, d, dim) at the ``_solve`` of t (dim,), from ``_dexp``
    of its coordinates."""
    y, points = charts._solve(chart, t)
    return charts._tangents(chart, charts._dexp(chart.center.basis, y), points)


def _pushed_images(chart, t):
    """Images of the uncorrected point exp(S t) rho."""
    rho, y = chart.center, chart.directions @ np.asarray(t, dtype=np.complex128)
    return _moved(rho, y.reshape(rho.p, -1), rho._at).images


@pytest.fixture(scope="module")
def genus2_chart(genus2_rep):
    space = cocycle_space(genus2_rep)
    return Chart(genus2_rep, space.h1[:, :3])


class TestRetract:
    def test_center_fixed(self, genus2_chart):
        rho = _retract(genus2_chart, [0.0, 0.0, 0.0])
        for m1, m2 in zip(rho.images, genus2_chart.center.images):
            assert np.allclose(m1, m2, atol=1e-12)

    def test_stays_on_variety(self, genus2_chart):
        rho = _retract(genus2_chart, [0.02, -0.01, 0.015])
        r = rho.presentation.relators[0]
        assert np.linalg.norm(evaluate_word(rho, r) - np.eye(2)) < 1e-11

    def test_correction_quadratic(self, genus2_chart):
        # cocycle directions solve the relator to first order, so the
        # Gauss-Newton correction shrinks like |t|^2
        def correction(scale):
            t = scale * np.array([1.0, 0.5, -0.7]) / np.sqrt(1.74)
            start = _retract(Chart(genus2_chart.center, genus2_chart.directions),
                             t)
            pushed = _pushed_images(genus2_chart, t)
            return sum(np.linalg.norm(a - b)
                       for a, b in zip(start.images, pushed))

        c1 = correction(2e-2)
        c2 = correction(1e-2)
        assert c1 / c2 == pytest.approx(4.0, rel=0.3)

    def test_free_group_is_exponential(self, f2_rep):
        space = cocycle_space(f2_rep)
        chart = Chart(f2_rep, space.z1[:, :2])
        t = [0.1, -0.2]
        rho = _retract(chart, t)
        for m1, m2 in zip(rho.images, _pushed_images(chart, t)):
            assert np.allclose(m1, m2, atol=1e-14)

    def test_directions_of_the_wrong_length_are_refused(self, genus2_rep):
        """A direction has p dim g = 12 entries at the acceptance point."""
        for directions in (np.ones((5, 3)), np.ones(12), np.ones((3, 12))):
            with pytest.raises(InvalidInput, match="p dim g = 12"):
                Chart(genus2_rep, directions)

    def test_left_chart_on_non_cocycle_direction(self, genus2_rep):
        # a direction violating the linearized relator needs a first-order
        # correction, which exceeds |t|
        rng = np.random.default_rng(0)
        bad = rng.standard_normal((12, 1))
        chart = Chart(genus2_rep, bad)
        with pytest.raises(LeftChart):
            _retract(chart, [0.05])


def _difference(chart, t, e, h):
    """Central difference of the chart point along the complex vector e, in
    the left-trivialised coordinates at the point t, stacked (p * dim g,)."""
    t, e = np.asarray(t, dtype=np.complex128), np.asarray(e, dtype=np.complex128)
    plus, minus = _retract(chart, t + h * e), _retract(chart, t - h * e)
    rho = _retract(chart, t)
    dm = (np.array(plus.images) - np.array(minus.images)) / (2 * h)
    return rho.basis.coords_from_matrix(dm @ rho._at.inverses).reshape(-1)


class TestTransport:
    T = (0.02, -0.01, 0.015)

    def test_matches_direction_at_center(self, genus2_chart):
        for i in range(3):
            v = _transported(genus2_chart, [0.0, 0.0, 0.0], i)
            ref = genus2_chart.directions[:, i]
            assert np.linalg.norm(v - ref) < 1e-6

    def test_exact_direction_at_center(self, genus2_chart):
        # c'(0) = 0 since the directions are cocycles, and phi(ad 0) = 1
        for i in range(3):
            v = _transported(genus2_chart, [0.0, 0.0, 0.0], i)
            ref = genus2_chart.directions[:, i]
            assert np.linalg.norm(v - ref) <= 1e-12

    def test_ift_tangent_matches_central_difference(self, genus2_chart):
        for i in range(3):
            e = np.eye(3)[i]
            ref = _difference(genus2_chart, self.T, e, 1e-5)
            v = _transported(genus2_chart, self.T, i)
            assert np.linalg.norm(v - ref) <= 1e-8

    def test_cauchy_riemann(self, genus2_chart):
        # the chart is holomorphic: moving along i e_j is i times e_j
        for j in range(3):
            e = np.eye(3)[j]
            along_real = _difference(genus2_chart, self.T, e, 1e-5)
            along_imag = _difference(genus2_chart, self.T, 1j * e, 1e-5)
            assert np.linalg.norm(along_imag - 1j * along_real) <= 1e-8

    def test_free_group_tangent_is_dexp(self, f2_rep):
        # no relators: the tangent of t -> exp(t s) rho is phi(ad t s) s
        space = cocycle_space(f2_rep)
        chart = Chart(f2_rep, space.z1[:, :1])
        ref = _difference(chart, [0.3], [1.0], 1e-5)
        v = _transported(chart, [0.3], 0)
        assert np.linalg.norm(v - ref) <= 1e-8


def _acceptance_or_seeded(genus2_rep, point):
    """The acceptance point, or the seed-0 genus-2 point named "SL-3" etc."""
    if point == "acceptance":
        return genus2_rep
    kind, n = point.split("-")
    return random_point(2, 0, kind, int(n))[0]


def _closedness(rho, directions):
    """The closedness check of acceptance criterion 6 on the chart."""
    chart = Chart(rho, directions)
    cycle = fundamental_two_cycle(rho.presentation)
    return fd_exterior_derivative(
        3, eta_coefficients(chart, trace_form(), cycle), h=3e-2)


class TestClosedness:
    def test_goldman_closed_on_chart(self, genus2_chart):
        cycle = fundamental_two_cycle(genus2_chart.center.presentation)
        coeffs = eta_coefficients(genus2_chart, trace_form(), cycle)
        fd = fd_exterior_derivative(3, coeffs, h=3e-2)
        assert fd["scale"] > 1e-2
        assert fd["max_d"] <= 1e-5 * fd["scale"]

    def test_fd_error_is_the_half_difference_along_1_and_i(self, genus2_chart):
        fd = _closedness(genus2_chart.center, genus2_chart.directions)
        assert 0 < fd["fd_error"] < 1e-3 * fd["scale"]

        # a coefficient linear in t has exact central differences
        def linear(t):
            w = np.zeros((3, 3), dtype=np.complex128)
            w[0, 1] = 2.0 * t[2]
            return w

        exact = fd_exterior_derivative(3, linear, h=3e-2)
        assert exact["fd_error"] <= 1e-12
        assert exact["max_d"] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_verdict_independent_of_h1_basis(self, genus2_rep, seed):
        # LAPACK may return any orthonormal basis of H^1; rotate it by a
        # seeded complex unitary and take the first three directions
        h1 = cocycle_space(genus2_rep).h1
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rotated = h1 @ np.linalg.qr(z)[0]
        fd = _closedness(genus2_rep, rotated[:, :3])
        assert fd["scale"] > 1e-2
        assert fd["max_d"] <= 1e-5 * fd["scale"]

    @pytest.mark.parametrize("kind,n", [("SL", 2), ("GL", 2), ("SL", 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_closed_at_random_points(self, kind, n, seed):
        rho, _ = random_point(2, seed, kind, n)
        fd = _closedness(rho, cocycle_space(rho).h1[:, :3])
        assert fd["scale"] > 1e-2
        assert fd["max_d"] <= 1e-5 * fd["scale"]

    def test_each_point_is_evaluated_once(self, genus2_rep, monkeypatch):
        # one coeffs(t) call at a stencil point of the acceptance chart, built
        # from its images: the Ad pair and the relator values are built once
        # per Newton state (the center, the start at t and one trial for each
        # of the two steps), cocycle_space and Chart share one Fox walk, and
        # the tangents are paired in one walk with no form context.  The
        # structure constants behind basis.ad are built once per process, so
        # before counting.
        genus2_rep.basis.ad(np.zeros(genus2_rep.dim_g))
        counts = {"_ad_matrix": 0, "_word_values": 0, "walk_words": 0, "EtaContext": 0}
        for module, name in ((matgroup, "_ad_matrix"), (matgroup, "_word_values"),
                             (cohomology, "walk_words"), (forms, "EtaContext")):
            def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        rho = Representation(genus2_rep.presentation, genus2_rep.group,
                             genus2_rep.images)
        chart = Chart(rho, cocycle_space(rho).h1[:, :3])
        cycle = fundamental_two_cycle(rho.presentation)
        w = eta_coefficients(chart, trace_form(), cycle)(_stencil(3, 3e-2)[0])
        assert w.shape == (3, 3) and np.isfinite(w).all()
        assert counts["_ad_matrix"] <= 4
        assert counts["_word_values"] <= 4
        assert counts["walk_words"] == 1 and counts["EtaContext"] == 0

    def test_degree_mismatch(self, genus2_chart):
        cycle = fundamental_two_cycle(genus2_chart.center.presentation)
        with pytest.raises(DegreeMismatch):
            eta_coefficients(genus2_chart, power_trace(3), cycle)
        with pytest.raises(DegreeMismatch):
            chart_closedness(genus2_chart, power_trace(3), cycle)
        with pytest.raises(DegreeMismatch):
            chart_closedness(genus2_chart, trace_form(),
                             BarChain.of(1, {(Word.generator(0),): 1}))

    def test_cauchy_riemann_dev_flags_an_antiholomorphic_term(self, genus2_chart):
        # the chart's coefficients are holomorphic, so their deviation is
        # truncation error only; 1e-3 conj(t0) in w_12 differentiates to 1e-3
        # along 1 and -1e-3 along i: a spread of 2e-3 that their mean,
        # and so max_d, does not see
        cycle = fundamental_two_cycle(genus2_chart.center.presentation)
        coeffs = eta_coefficients(genus2_chart, trace_form(), cycle)
        fd = fd_exterior_derivative(3, coeffs, h=3e-2)
        assert fd["cauchy_riemann_dev"] <= 1e-4

        def perturbed(t):
            c = coeffs(t)
            c[1, 2] = c[1, 2] + 1e-3 * np.conj(t[0])
            return c

        bad = fd_exterior_derivative(3, perturbed, h=3e-2)
        assert bad["cauchy_riemann_dev"] == pytest.approx(2e-3, abs=1e-4)
        assert bad["max_d"] == pytest.approx(fd["max_d"], abs=1e-12)

    def test_perturbation_detected(self, genus2_chart):
        cycle = fundamental_two_cycle(genus2_chart.center.presentation)
        coeffs = eta_coefficients(genus2_chart, trace_form(), cycle)

        def perturbed(t):
            c = coeffs(t)
            c[(1, 2)] = c[(1, 2)] + 1e-3 * t[0]  # d/dt0 does not cancel
            return c

        fd = fd_exterior_derivative(3, perturbed, h=3e-2)
        assert fd["max_d"] >= 1e-4


class TestLockstep:
    """``_solve`` takes one chart point t (dim,) and names it by t when it
    fails; ``fd_exterior_derivative`` evaluates ``eta_coefficients`` at one
    stencil point at a time."""

    def test_left_chart_names_the_point(self, genus2_rep):
        # only the third direction violates the linearised relator, so only
        # the point along it moves by more than |t| in its correction
        h1 = cocycle_space(genus2_rep).h1
        bad = np.random.default_rng(0).standard_normal((12, 1))
        chart = Chart(genus2_rep, np.hstack([h1[:, :2], bad]))
        charts._solve(chart, [0.01, 0, 0])
        charts._solve(chart, [0, 0.01, 0])
        with pytest.raises(LeftChart, match=r"chart point t = \[0.* 0\.05\+0\.j\]: correction"):
            charts._solve(chart, [0, 0, 0.05])

    def test_forced_stall_names_the_point(self, genus2_rep):
        # a center built with a residual bound of 1e-300: its relator holds
        # exactly, so t = 0 converges at once, while the point at t = 0.01 e_0
        # stalls at rounding level
        center = Representation(genus2_rep.presentation, genus2_rep.group,
                                genus2_rep.images, tol=Tolerances(newton_tol=1e-300))
        chart = Chart(center, cocycle_space(center).h1[:, :3])
        charts._solve(chart, [0, 0, 0])
        with pytest.raises(NoConvergence, match="backtracking stalled") as info:
            charts._solve(chart, [0.01, 0, 0])
        assert str(info.value).startswith("chart point t = [0.01")
        assert info.value.residual <= 1e-12
        cycle = fundamental_two_cycle(genus2_rep.presentation)
        with pytest.raises(NoConvergence):
            fd_exterior_derivative(3, eta_coefficients(chart, trace_form(), cycle), 3e-2)
        # the exact check solves nothing, so nothing stalls
        assert chart_closedness(chart, trace_form(), cycle)["pass"]

    def test_a_mis_shaped_point_is_invalid_input(self, genus2_chart):
        # a 3-dim chart takes t of shape (3,): neither a short point nor a
        # stack of points
        cycle = fundamental_two_cycle(genus2_chart.center.presentation)
        coeffs = eta_coefficients(genus2_chart, trace_form(), cycle)
        for t in ([0.01, 0.02], np.full((2, 3), 0.01)):
            with pytest.raises(InvalidInput, match=r"shape \(3,\), got \(2"):
                coeffs(t)

    def test_no_triple_below_dimension_three(self, genus2_rep):
        # no stencil point is sampled, so the verdict has nothing to pass on
        chart = Chart(genus2_rep, cocycle_space(genus2_rep).h1[:, :2])
        cycle = fundamental_two_cycle(genus2_rep.presentation)
        fd = fd_exterior_derivative(2, eta_coefficients(chart, trace_form(), cycle), 3e-2)
        assert fd == {"max_d": 0.0, "scale": 0.0, "fd_error": 0.0,
                      "cauchy_riemann_dev": 0.0, "h": 3e-2, "evaluations": 0,
                      "bound": 1e-5, "pass": False}
        # the exact check sees a nonzero form but no triple either
        exact = chart_closedness(chart, trace_form(), cycle)
        assert exact["max_d"] == 0.0 and exact["scale"] > 1e-2
        assert exact["pass"] is False


def _triples(jet):
    """(d omega)_ijk = D_ijk - D_jik + D_kij over i < j < k, from the
    derivatives D[k, i, j] = d_k omega_ij of an alternated form."""
    return np.array([jet[i, j, k] - jet[j, i, k] + jet[k, i, j]
                     for i, j, k in itertools.combinations(range(len(jet)), 3)])


def _center_jet(chart, chain):
    """D[k, i, j] = d_k omega_ij of the trace-form pullback at the chart's
    center: ``_jet`` on the chart tangents there, through ``_dexp`` at 0."""
    rho = chart.center
    v = _solved_tangents(chart, np.zeros(chart.dim))
    return _jet(rho.basis, rho._at, v, symmetric_tensor(trace_form(), rho.basis),
                chain)[0]


def _alternated_fd(chart, cycle, h=5e-3):
    """d omega of the alternated trace-form pullback (P - P^T) / 2 on the
    true (Newton-solved) chart, from the holomorphic central differences at
    ``_stencil(m, h)``, the mean of the partials along 1 and along i."""
    m, rho = chart.dim, chart.center
    tensor, p = symmetric_tensor(trace_form(), rho.basis), []
    for t in _stencil(m, h):
        y, points = charts._solve(chart, t)
        values = charts._tangents(chart, charts._dexp(rho.basis, y), points)
        table = cohomology.walk_words(points.ad, points.ad_inv, values, cycle.words)
        p.append(forms._cycle_pairing(cycle, tensor, table))
    p = np.array(p)
    w = ((p - np.swapaxes(p, -1, -2)) / 2).reshape(m, 2, 2, m, m)
    partial = (w[:, :, 0] - w[:, :, 1]) / (h * np.array([1, 1j]))[:, None, None]
    return _triples(partial.mean(axis=1))


class TestExactClosedness:
    """``chart_closedness`` reads d omega at the center from the chart's
    1-jet, one walk over the dual numbers; alternated FD on the true chart
    is its reference wherever d omega is not zero."""

    def test_closed_at_the_acceptance_point(self, genus2_chart):
        cycle = fundamental_two_cycle(genus2_chart.center.presentation)
        exact = chart_closedness(genus2_chart, trace_form(), cycle)
        assert exact["scale"] > 1e-2 and exact["pass"]
        assert exact["max_d"] <= 1e-11 * exact["scale"]
        assert sorted(exact) == ["bound", "max_d", "pass", "scale"]

    @pytest.mark.parametrize("kind,n", [("SL", 2), ("GL", 2), ("SL", 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_closed_at_seeded_points(self, kind, n, seed):
        rho = random_point(2 + seed % 2, seed, kind, n)[0]
        chart = Chart(rho, cocycle_space(rho).h1[:, :3])
        exact = chart_closedness(chart, trace_form(),
                                 fundamental_two_cycle(rho.presentation))
        assert exact["scale"] > 1e-2 and exact["pass"]
        assert exact["max_d"] <= 1e-11 * exact["scale"]

    @pytest.mark.parametrize("point", ["acceptance", "SL-3", "GL-2"])
    def test_matches_fd_off_the_cycles(self, genus2_rep, point):
        # without term 8 the chain is no cycle and d omega is of order scale;
        # the directions span the projection h1 h1^H of fixed seeded vectors,
        # so they do not depend on the basis of H^1 that LAPACK returns
        rho = _acceptance_or_seeded(genus2_rep, point)
        h1 = cocycle_space(rho).h1
        rng = np.random.default_rng(1)
        w = rng.standard_normal((len(h1), 3)) + 1j * rng.standard_normal((len(h1), 3))
        chart = Chart(rho, np.linalg.qr(h1 @ h1.conj().T @ w)[0])
        chain = fundamental_two_cycle(rho.presentation).drop_term(8)
        exact = _triples(_center_jet(chart, chain))
        fd = _alternated_fd(chart, chain)
        assert np.abs(exact).max() >= 1e-2
        assert np.abs(exact - fd).max() <= 1e-8 * np.abs(exact).max()
        report = chart_closedness(chart, trace_form(), chain)
        assert report["max_d"] == np.abs(exact).max() and not report["pass"]

    def test_matches_fd_on_the_free_group_demo_chain(self):
        # dense directions, as the demo draws them, reach both generators
        rho, rng = random_point(0, 3, "SL", 2, free=2)
        space = cocycle_space(rho)
        chart = Chart(rho, np.stack([random_cocycle(space, rng) for _ in range(3)], 1))
        a, b = Word.generator(0), Word.generator(1)
        chain = BarChain.of(2, {(a, b): 1})
        exact = _triples(_center_jet(chart, chain))
        assert np.abs(exact).max() >= 1e-2
        assert np.abs(exact - _alternated_fd(chart, chain)).max() <= (
            1e-8 * np.abs(exact).max())

    def test_matches_fd_off_z1(self, genus2_rep):
        # the third direction leaves Z^1, so the chart's tangent there is
        # its projection, not the direction itself
        h1 = cocycle_space(genus2_rep).h1
        off = np.random.default_rng(0).standard_normal(12)
        directions = h1[:, :3].copy()
        directions[:, 2] += 0.3 * off / np.linalg.norm(off)
        chart = Chart(genus2_rep, directions)
        v = _transported(chart, np.zeros(3), 2)
        assert np.linalg.norm(v - directions[:, 2]) >= 0.05
        chain = fundamental_two_cycle(genus2_rep.presentation).drop_term(8)
        exact = _triples(_center_jet(chart, chain))
        fd = _alternated_fd(chart, chain)
        assert np.abs(exact - fd).max() <= 1e-8 * np.abs(exact).max()

    def test_one_walk_and_two_pairings_per_check(self, genus2_chart, monkeypatch):
        # no Newton solve; the center's own record serves, so no Ad matrix
        # or word value is built either
        names = ((charts, "_solve"), (charts, "_damped_newton"),
                 (charts, "walk_words"), (charts, "_cycle_pairing"),
                 (matgroup, "_ad_matrix"), (matgroup, "_word_values"))
        counts = dict.fromkeys((name for _, name in names), 0)
        for module, name in names:
            def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        cycle = fundamental_two_cycle(genus2_chart.center.presentation)
        assert chart_closedness(genus2_chart, trace_form(), cycle)["pass"]
        assert counts == {"_solve": 0, "_damped_newton": 0, "walk_words": 1,
                          "_cycle_pairing": 2, "_ad_matrix": 0, "_word_values": 0}

    def test_no_exponential_at_the_center(self, genus2_chart, monkeypatch):
        # phi(ad 0) = I: the center's tangents need no block matrix_exp
        calls = []
        for module in (charts, matgroup, numeric):
            monkeypatch.setattr(module, "matrix_exp",
                                lambda *args, **kwargs: calls.append(args))
        cycle = fundamental_two_cycle(genus2_chart.center.presentation)
        assert chart_closedness(genus2_chart, trace_form(), cycle)["pass"]
        assert calls == []

    def test_alternated_fd_of_eta_coefficients_is_the_exact_value(self):
        # off the cycles eta_coefficients and the exact check read one form,
        # (P - P^T) / 2, on the free-group demo's chain
        rho, rng = random_point(0, 7, "SL", 2, free=2)
        space = cocycle_space(rho)
        chart = Chart(rho, np.stack([random_cocycle(space, rng) for _ in range(3)], 1))
        a, b = Word.generator(0), Word.generator(1)
        chain = BarChain.of(2, {(a, b): 1})
        exact = chart_closedness(chart, trace_form(), chain)
        fd = fd_exterior_derivative(3, eta_coefficients(chart, trace_form(), chain), 5e-3)
        assert exact["max_d"] >= 1e-2
        assert abs(fd["max_d"] - exact["max_d"]) <= 1e-8 * exact["max_d"]
        assert abs(fd["scale"] - exact["scale"]) <= 1e-2 * exact["scale"]


def _lagrangian_chart(rho):
    """A 3-dim chart on an isotropic subspace of H^1: greedy, each direction
    the last right singular vector of the Gram rows of those before it and of
    their conjugates, so omega vanishes on every pair of directions."""
    h1 = cocycle_space(rho).h1
    gram = gram_matrix(make_context(rho, trace_form()), h1)[0]
    c = [np.eye(len(gram))[0]]
    for _ in range(2):
        rows = np.vstack([np.array(c) @ gram, np.conj(c)])
        c.append(np.linalg.svd(rows)[2][-1].conj())
    return Chart(rho, h1 @ np.array(c).T)


def _verdict_inputs(monkeypatch, check, *args):
    """The (max_d, scale, m, floor) that ``check(*args)`` hands ``_closed``,
    and its report."""
    seen = []
    monkeypatch.setattr(charts, "_closed",
                        lambda *a, _closed=charts._closed: seen.append(a) or _closed(*a))
    report = check(*args)
    return seen[0], report


class TestRoundingFloor:
    """A scale below ``_floor`` is rounding: no verdict rests on it."""

    @pytest.mark.parametrize("kind,n", [("SL", 2), ("GL", 2), ("SL", 3)])
    @pytest.mark.parametrize("seed", range(2))
    def test_lagrangian_chart_is_no_pass(self, kind, n, seed, monkeypatch):
        rho = random_point(2, seed, kind, n)[0]
        chart = _lagrangian_chart(rho)
        (max_d, scale, m, floor), report = _verdict_inputs(
            monkeypatch, chart_closedness, chart, trace_form(),
            fundamental_two_cycle(rho.presentation))
        assert 0 < floor <= 1e-9
        assert scale <= 1e-3 * floor and report["pass"] is False

    def test_acceptance_point_is_far_above_the_floor(self, genus2_chart, monkeypatch):
        (max_d, scale, m, floor), report = _verdict_inputs(
            monkeypatch, chart_closedness, genus2_chart, trace_form(),
            fundamental_two_cycle(genus2_chart.center.presentation))
        assert report["pass"] and scale >= 1e6 * floor > 0

    @pytest.mark.parametrize("max_d,scale,floor,verdict", [
        (0.0, 1e-12, 1e-11, False), (0.0, 1e-11, 1e-11, False),
        (0.0, 2e-11, 1e-11, True), (1e-17, 1e-12, 1e-11, False),
        (0.0, 1.0, float("nan"), False)])
    def test_no_verdict_at_or_below_the_floor(self, max_d, scale, floor, verdict):
        assert charts._closed(max_d, scale, 3, floor) is verdict


def _form(m, entries):
    """Coefficient function of sum_{i<j} f_ij(t) dt_i ^ dt_j: the
    antisymmetric (m, m) array of the callables ``entries[(i, j)]``."""
    def coeffs(t):
        w = np.zeros((m, m), dtype=np.complex128)
        for (i, j), f in entries.items():
            w[i, j], w[j, i] = f(t), -f(t)
        return w
    return coeffs


def _exact(m, seed):
    """omega = d alpha for alpha = sum_k (t^T Q_k t) dt_k, random complex Q_k:
    omega_jk = d_j alpha_k - d_k alpha_j, linear in t and closed."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
    grad = q + np.swapaxes(q, 1, 2)  # (grad[k] @ t)[j] = d_j alpha_k

    def coeffs(t):
        g = grad @ t
        return g.T - g
    return coeffs


def _holomorphic_fd(m, coeffs, h):
    """The shared FD operator on the coefficients at ``_stencil(m, h)``."""
    w = np.stack([coeffs(t) for t in _stencil(m, h)])
    return _fd_d(w, h)


def _fd_d_by_triples(w, h):
    """``_fd_d`` one triple i < j < k at a time: the reference loop over
    (d omega)_{ijk} = d_i w_jk - d_j w_ik + d_k w_ij and its three partials."""
    m = w.shape[-1]
    w = np.triu(w, 1)
    w = (w - np.swapaxes(w, 1, 2)).reshape(len(w) // 4, 2, 2, m, m)
    partial = (w[:, :, 0] - w[:, :, 1]) / (h * np.array([1, 1j]))[:, None, None]
    rows = [np.zeros(5)]  # per triple: max_d, fd_error, three partial spreads
    for (i, j, k) in itertools.combinations(range(m), 3):
        terms = (partial[i, :, j, k], partial[j, :, i, k], partial[k, :, i, j])
        total = terms[0] - terms[1] + terms[2]  # along 1 and along i
        rows.append([abs(total.mean()), abs(total[0] - total[1]) / 2,
                     *(abs(t[0] - t[1]) for t in terms)])
    worst = np.max(rows, axis=0)
    return float(worst[0]), float(worst[1]), float(worst[2:].max())


class TestFdOperator:
    """Exact-polynomial oracles: central differences are exact for
    coefficients of degree at most 2, so d(omega) is known to rounding."""

    H = 5e-2

    def test_real_stencil_monomial(self):
        # omega = t0 dt1 ^ dt2, d omega = dt0 ^ dt1 ^ dt2, through the report
        # of fd_exterior_derivative, on 4 points per axis
        fd = fd_exterior_derivative(3, _form(3, {(1, 2): lambda t: t[0]}), self.H)
        assert fd["max_d"] == pytest.approx(1.0, abs=1e-12)
        assert fd["fd_error"] <= 1e-12 and fd["cauchy_riemann_dev"] <= 1e-12
        assert fd["evaluations"] == 12

    def test_holomorphic_stencil_monomial(self):
        # the same monomial straight through _stencil and _fd_d
        max_d, fd_error, cr_dev = _holomorphic_fd(
            3, _form(3, {(1, 2): lambda t: t[0]}), self.H)
        assert max_d == pytest.approx(1.0, abs=1e-12)
        assert fd_error <= 1e-12 and cr_dev <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_form_is_closed_on_both_stencils(self, seed):
        # the 12-point stencil of a 3-dim chart and the 16-point one of a 4-dim
        for m in (3, 4):
            coeffs = _exact(m, seed)
            fd = fd_exterior_derivative(m, coeffs, self.H)
            assert fd["scale"] > 1e-2 and fd["evaluations"] == 4 * m
            assert fd["max_d"] <= 1e-12 * fd["scale"]
            assert fd["fd_error"] <= 1e-12 * fd["scale"]
            assert fd["cauchy_riemann_dev"] <= 1e-12 * fd["scale"]
            assert _holomorphic_fd(m, coeffs, self.H) == (
                fd["max_d"], fd["fd_error"], fd["cauchy_riemann_dev"])

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_the_per_triple_loop(self, m):
        # random coefficients, not a form: every triple reads a different d
        rng = np.random.default_rng(m)
        w = rng.standard_normal((4 * m, m, m)) + 1j * rng.standard_normal((4 * m, m, m))
        max_d, fd_error, cr_dev = _fd_d(w, self.H)
        ref = _fd_d_by_triples(w, self.H)
        assert max_d == pytest.approx(ref[0], rel=1e-13)
        assert fd_error == pytest.approx(ref[1], rel=1e-13)
        assert cr_dev == ref[2]

    def test_quintic_leaves_h4_over_16(self):
        # t0^5 dt1 ^ dt2: d omega is 5 t0^4 = 0 at the center, and the width-h
        # differences along 1 and i both read (h/2)^4 = h^4/16; Richardson over
        # +-h and +-h/2 would leave h^4/4
        h = 1e-1
        fd = fd_exterior_derivative(3, _form(3, {(1, 2): lambda t: t[0] ** 5}), h)
        assert fd["max_d"] == pytest.approx(h ** 4 / 16, rel=1e-12)

    def test_cauchy_riemann_flags_an_antiholomorphic_coefficient(self):
        # d/dt0 conj(t0) is +1 along h and -1 along ih: they average to 0
        max_d, _, cr_dev = _holomorphic_fd(
            3, _form(3, {(1, 2): lambda t: np.conj(t[0])}), self.H)
        assert cr_dev == pytest.approx(2.0)
        assert max_d <= 1e-12

    def test_fd_error_is_the_leading_truncation_error(self):
        # exp(t0) dt1 ^ dt2: the width-h partials along 1 and i are
        # 1 +- (h/2)^2/6 + (h/2)^4/120 + ..., so their half-difference is
        # h^2/24 to leading order and their mean leaves h^4/1920
        h = 1e-1
        fd = fd_exterior_derivative(3, _form(3, {(1, 2): lambda t: np.exp(t[0])}), h)
        assert fd["fd_error"] == pytest.approx(h ** 2 / 24, rel=1e-2)
        assert fd["max_d"] - 1.0 == pytest.approx(h ** 4 / 1920, rel=1e-2)

    def test_nan_in_a_later_triple_is_kept(self):
        # triple (0, 1, 2) is finite and comes first; (0, 1, 3) reads NaN
        coeffs = _form(4, {(1, 2): lambda t: t[0], (1, 3): lambda t: np.nan})
        fd = fd_exterior_derivative(4, coeffs, self.H)
        assert np.isnan(fd["max_d"]) and np.isnan(fd["fd_error"])
        assert fd["pass"] is False
        max_d, fd_error, cr_dev = _holomorphic_fd(4, coeffs, self.H)
        assert np.isnan([max_d, fd_error, cr_dev]).all()

    @pytest.mark.parametrize("max_d,scale,verdict", [
        (1e-6, 1.0, True), (0.0, 0.0, False), (2e-5, 1.0, False),
        (float("nan"), 1.0, False), (0.0, float("nan"), False),
        (1e-6, float("inf"), False), (float("inf"), float("inf"), False)])
    def test_one_closedness_verdict(self, max_d, scale, verdict):
        assert charts._closed(max_d, scale, 3, 0.0) is verdict

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_no_verdict_without_a_triple(self, m):
        # a nonzero scale and max_d 0 show nothing when no triple is checked
        assert charts._closed(0.0, 1.0, m, 0.0) is False

    def test_no_triple_below_dimension_three(self):
        fd = fd_exterior_derivative(2, _form(2, {(0, 1): lambda t: t[0]}), self.H)
        assert fd["evaluations"] == 0
        assert fd["max_d"] == fd["fd_error"] == 0.0


class TestFreeGroupDemo:
    @pytest.mark.parametrize("p", [0, 1])
    def test_fewer_than_two_generators_is_invalid_input(self, p):
        with pytest.raises(InvalidInput):
            free_group_demo(p, SL2, rng=np.random.default_rng(0))

    def test_chain_level_not_closed(self):
        report = free_group_demo(2, SL2, rng=np.random.default_rng(7))
        assert report["nonclosed"]
        assert report["max_d"] >= 1e-3 * report["scale"]
        assert report["cycle_pairing"] < 1e-8
        assert report["chain_pairing_scale"] > 1e-2
