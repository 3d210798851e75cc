import dataclasses
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import charforms.cohomology
import charforms.families
import charforms.matgroup
from charforms import (
    BarChain,
    GroupSpec,
    Presentation,
    Representation,
    combination,
    power_trace,
    trace_form,
    Word,
)
from charforms.charts import _jet, _max_d, _stencil
from charforms.cohomology import bar_boundary, fox_jacobian, fundamental_two_cycle
from charforms.forms import EtaContext, eta
from charforms.invariants import symmetric_tensor
from charforms.errors import DegreeMismatch, InvalidInput, NotTangent
from charforms.matgroup import lie_algebra_basis
from charforms.numeric import DEFAULT_TOL, Tolerances
from charforms.families import (
    FamilySpec,
    Poly,
    base_change,
    compare_base_change,
    family_from_json,
    _walk,
    family_pullback,
)

from conftest import diagonal_family, family_payload, random_family
from oracles import diff

GL2 = GroupSpec("GL", 2)


def _tangent(family, s, k):
    """sigma_k at the point s, stacked (p dim g,): one row of ``_walk``."""
    return _walk(family, s, ())[0][0, k].reshape(-1)


class TestPoly:
    def test_arithmetic(self):
        x = Poly.var(2, 0)
        y = Poly.var(2, 1)
        p = (x + y) * (x - y)
        q = x * x - y * y
        assert p.coeffs == q.coeffs

    def test_diff(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x * x * y + Poly.const(2, 3.0) * y
        assert diff(p, 0).coeffs == (2.0 * x * y).coeffs
        assert diff(p, 1).coeffs == (x * x + Poly.const(2, 3.0)).coeffs

    def test_call(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x * y + Poly.const(2, 1.0)
        assert p([2.0, 3.0 + 1.0j]) == pytest.approx(7.0 + 2.0j)

    def test_exponents_are_bounded(self):
        """An exponent above 1024 is refused: it would set the width of the
        compiled table of powers."""
        assert Poly(2, {(1024, 3): 1.0}).coeffs == {(1024, 3): 1.0}
        for powers in ((1025, 0), (0, 2 ** 40), (2 ** 63, 1)):
            with pytest.raises(InvalidInput, match="at most 1024"):
                Poly(2, {powers: 1.0})

    def test_other_variable_counts_are_refused(self):
        """A product of Polys in 2 and 3 variables, and a substitution mixing
        1 and 3 variables, used to drop a variable without a word."""
        with pytest.raises(InvalidInput, match="in 2 and 3 variables"):
            Poly.var(2, 0) * Poly.var(3, 2)
        with pytest.raises(InvalidInput, match="in 1 and 3 variables"):
            Poly.var(2, 1).compose([Poly.var(1, 0), Poly.var(3, 0)])

    def test_compose(self):
        x = Poly.var(1, 0)
        p = x * x + 2.0 * x
        u, v = Poly.var(2, 0), Poly.var(2, 1)
        q = p.compose([u + v])
        rng = np.random.default_rng(0)
        for _ in range(5):
            pt = rng.standard_normal(2)
            assert q(pt) == pytest.approx(p([pt[0] + pt[1]]))


class TestFamilySpec:
    def test_validate(self, family):
        assert family.validate() < 1e-12

    def test_validate_builds_no_ad_matrix(self, family, monkeypatch):
        """validate reads only the relator values: it builds no Ad matrix,
        while a tangent at one point builds its record's Ad pair once."""
        calls = Counter()
        ad_matrix = charforms.matgroup._ad_matrix

        def counted(*args):
            calls["ad"] += 1
            return ad_matrix(*args)

        monkeypatch.setattr(charforms.matgroup, "_ad_matrix", counted)
        assert family.validate() < 1e-12 and calls == Counter()
        _tangent(family, np.zeros(3), 0)
        assert calls == Counter(ad=1)

    @pytest.mark.parametrize("radius", [(0.5, 0.3, 0.7), (1.0, 2.0, 0.25), (3, 1, 0.1)])
    def test_validate_draws_the_points_of_the_scalar_loop(self, family, radius,
                                                          monkeypatch):
        """The 20 sample points come from one uniform draw, bit for bit the
        points of a loop of two scalar draws, re then im, per radius."""
        family = dataclasses.replace(family, domain_radius=radius)
        seen, evaluate = [], FamilySpec._evaluate

        def recorded(self, s):
            seen.append(s)
            return evaluate(self, s)

        monkeypatch.setattr(FamilySpec, "_evaluate", recorded)
        family.validate()
        rng = np.random.default_rng(0)
        loop = np.array([[r * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
                          for r in radius] for _ in range(20)])
        assert seen[0].tobytes() == loop.tobytes()

    def test_rep_at_center(self, family):
        rho = family.rep_at(np.zeros(3))
        assert np.allclose(rho.images[0], np.diag([2.0, 0.5]))

    def test_invalid_family_rejected(self):
        # break the commutation by an off-diagonal entry on one generator
        pres = Presentation.surface(2)
        m = 3
        c = lambda v: Poly.const(m, v)
        zero = Poly(m)
        s1 = Poly.var(m, 0)

        def diag(p, q):
            return [[p, zero], [zero, q]]

        images = {
            "a1": [[c(2.0), s1], [zero, c(0.5)]],
            "b1": diag(c(3.0), c(1.0 / 3.0)),
            "a2": diag(c(1.0), c(1.0)),
            "b2": diag(c(1.0), c(2.0)),
        }
        fam = FamilySpec(pres, GL2, ("s1", "s2", "s3"), (0.2,) * 3, images)
        with pytest.raises(InvalidInput):
            fam.validate()

    def test_json_roundtrip(self, family):
        data = family_payload(family)["family"]
        back = family_from_json(data, family.presentation, family.group)
        s = np.array([0.03, -0.05, 0.02])
        for k in range(family.presentation.p):
            assert np.allclose(back.rep_at(s).images[k],
                               family.rep_at(s).images[k], atol=1e-14)

    def test_tolerances_travel_with_the_family(self, family):
        tol = Tolerances(rank_rel=1e-8, newton_tol=1e-11)
        data = family_payload(family)["family"]
        back = family_from_json(data, family.presentation, family.group, tol)
        subs = [Poly.var(2, 0), Poly.var(2, 1), Poly.const(2, 0.0)]
        moved = base_change(back, subs, ("u1", "u2"), (0.2, 0.2))
        assert family.tol is DEFAULT_TOL
        assert back.tol is tol and moved.tol is tol
        assert back.rep_at(np.zeros(3)).tol is tol


class TestFamilyTangent:
    def test_is_cocycle(self, family):
        s = np.array([0.04, -0.02, 0.05], dtype=complex)
        rho = family.rep_at(s)
        jac = fox_jacobian(rho)
        for k in range(3):
            sigma = _tangent(family, s, k)
            assert np.linalg.norm(jac @ sigma) < 1e-10

    def test_matches_finite_difference(self, family):
        s = np.zeros(3, dtype=complex)
        h = 1e-6
        for k in range(3):
            sigma = _tangent(family, s, k).reshape(4, -1)
            e = np.zeros(3, dtype=complex)
            e[k] = h
            rho_p = family.rep_at(s + e)
            rho_m = family.rep_at(s - e)
            rho0 = family.rep_at(s)
            for j in range(4):
                dm = (rho_p.images[j] - rho_m.images[j]) / (2 * h)
                fd = rho0.basis.coords_from_matrix(
                    dm @ np.linalg.inv(rho0.images[j]))
                assert np.linalg.norm(fd - sigma[j]) < 1e-8

    def test_invalid_tangent_detected(self, family):
        # off the zero set of the relator the derivative is not a cocycle
        bad = FamilySpec(family.presentation, family.group, family.params,
                         family.domain_radius, dict(family.images))
        images = dict(bad.images)
        s1 = Poly.var(3, 0)
        images["a1"] = [[images["a1"][0][0], s1],
                        [Poly(3), images["a1"][1][1]]]
        bad = FamilySpec(family.presentation, family.group, family.params,
                         family.domain_radius, images)
        with pytest.raises(NotTangent):
            _tangent(bad, np.array([0.1, 0.0, 0.0]), 0)


def _reference_coefficients(family, s):
    """The per-point path at s: entries by Poly.__call__, tangents from the
    exact oracle ``diff``, one Representation and EtaContext, eta pair by pair."""
    names = family.presentation.generator_names
    images = np.array([[[e(s) for e in row] for row in family.images[name]]
                       for name in names])
    rho = Representation(family.presentation, family.group, images, check=False)
    inverses = np.linalg.inv(images)
    tangents = [rho.basis.coords_from_matrix(
        np.array([[[diff(e, k)(s) for e in row] for row in family.images[name]]
                  for name in names]) @ inverses).reshape(-1) for k in range(family.m)]
    ctx = EtaContext(rho, trace_form(),
                     symmetric_tensor(trace_form(), rho.basis),
                     fundamental_two_cycle(family.presentation))
    return {f"{k},{l}": eta(ctx, tangents[k], tangents[l])
            for k in range(family.m) for l in range(k + 1, family.m)}


@pytest.mark.parametrize("build", [diagonal_family,
                                   lambda: random_family(3, 3, seed=5)],
                         ids=["diagonal", "genus3-GL3"])
def test_pullback_samples_match_per_point_reference(build):
    family = build()
    report = family_pullback(family, trace_form(), grid=3)
    assert len(report["samples"]) == 27
    for smp in report["samples"]:
        ref = _reference_coefficients(family, np.array(smp["s"]))
        assert smp["coefficients"].keys() == ref.keys()
        for key, value in ref.items():
            assert abs(smp["coefficients"][key] - value) <= 1e-12 * report["scale"]


def _counting(monkeypatch, calls, name, target, attr):
    original = getattr(target, attr)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(target, attr, counted)


def test_pullback_cost_does_not_grow_with_grid(family, monkeypatch):
    """grid=2 (9 points with s = 0) and grid=3 (28 points) make the same
    number of batched inverses and walks, and no per-point Representation
    or EtaContext."""
    counts = []
    for grid in (2, 3):
        calls = Counter()
        with monkeypatch.context() as mp:
            _counting(mp, calls, "matrix_inverse", charforms.families,
                      "matrix_inverse")
            _counting(mp, calls, "walk", charforms.families, "walk_words")
            _counting(mp, calls, "letter", charforms.cohomology, "cocycle_walk")
            _counting(mp, calls, "Representation", Representation, "__init__")
            _counting(mp, calls, "EtaContext", EtaContext, "__init__")
            family_pullback(family, trace_form(), grid=grid)
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["matrix_inverse"] == 1 and counts[0]["walk"] == 1
    assert counts[0]["Representation"] == counts[0]["EtaContext"] == 0


def test_grid_3_evaluates_28_points(family, monkeypatch):
    """A 3-parameter family at grid=3 sends its 27 grid points and then
    s = 0, where the closedness check reads the 1-jet, through one
    coefficient pass."""
    sizes = []
    original = charforms.families._coefficients

    def counted(family, tensor, cycle, points):
        sizes.append(len(points))
        return original(family, tensor, cycle, points)

    monkeypatch.setattr(charforms.families, "_coefficients", counted)
    assert family.m == 3
    family_pullback(family, trace_form(), grid=3)
    assert sizes == [28]


def test_blocks_that_split_the_stencil_give_the_same_report(monkeypatch):
    family = random_family(2, 3, seed=2)
    whole = family_pullback(family, trace_form(), grid=3)
    monkeypatch.setattr(charforms.families, "_BLOCK", 5)  # 28 points: 6 blocks
    split = family_pullback(family, trace_form(), grid=3)
    assert split == whole


def test_pullback_memory_does_not_grow_with_grid():
    """Points pass in fixed-size blocks: 1,729 points at grid=12 peak at
    most twice as high as 65 points at grid=4, one full block and s = 0
    (the report itself included)."""
    family = random_family(3, 3, seed=4)
    peaks = []
    for grid in (4, 12):
        family_pullback(family, trace_form(), grid=1)  # compile outside
        tracemalloc.start()
        report = family_pullback(family, trace_form(), grid=grid)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert len(report["samples"]) == grid ** 3
    assert peaks[1] <= 2 * peaks[0]


def _off_diagonal_family(family, entry):
    """``family`` with ``entry`` (a polynomial in s1) above the diagonal of
    a1: the images stop commuting wherever it is nonzero."""
    images = dict(family.images)
    images["a1"] = [[images["a1"][0][0], entry], [Poly(3), images["a1"][1][1]]]
    return FamilySpec(family.presentation, family.group, family.params,
                      family.domain_radius, images)


@pytest.mark.parametrize("cube,message", [
    (False, "family leaves Hom: relator residual"),  # (s1 + 0.1)^2
    (True, "tangent 0 fails cocycle check"),         # (s1 + 0.1)^2 s1
])
def test_not_tangent_in_a_batch_names_the_first_failing_point(family, cube,
                                                              message):
    """The entry vanishes to second order on the first grid slab s1 = -0.1,
    so the first 9 grid points pass; at the next point, s = (0, -0.1, -0.1),
    either the relator fails or (with a simple zero there) the tangent."""
    s1 = Poly.var(3, 0)
    entry = (s1 + 0.1) * (s1 + 0.1)
    bad = _off_diagonal_family(family, entry * s1 if cube else entry)
    first = np.array([0.0, -0.1, -0.1], dtype=complex)
    with pytest.raises(NotTangent, match=message) as info:
        family_pullback(bad, trace_form(), grid=3)
    assert str(info.value).endswith(f"at s={first}")
    for k in range(3):
        _tangent(bad, np.array([-0.1, 0.1, 0.0]), k)
    with pytest.raises(NotTangent, match=message):
        _tangent(bad, first, 0)


def test_sl_family_off_det_one_leaves_hom():
    """A torus family in SL(2) whose relator holds but whose det is 1 + s1
    leaves Hom(Z^2, SL(2)) at every point but s1 = 0: each per-point and
    batched path refuses it, naming the determinant."""
    one, zero, s1 = Poly.const(2, 1.0), Poly(2), Poly.var(2, 0)
    fam = FamilySpec(Presentation.surface(1), GroupSpec("SL", 2), ("s1", "s2"),
                     (0.2, 0.2), {"a1": [[one + s1, zero], [zero, one]],
                                  "b1": [[one, zero], [zero, one]]})
    point = np.array([0.1, 0.0])
    message = r"family leaves Hom: SL image has \|det - 1\|"
    with pytest.raises(InvalidInput, match=r"\|det - 1\|"):
        fam.validate()
    with pytest.raises(NotTangent, match=message):
        fam.rep_at(point)
    with pytest.raises(NotTangent, match=message):
        _tangent(fam, point, 0)
    assert np.array_equal(fam.rep_at(np.zeros(2)).images[0], np.eye(2))


def test_constant_family_off_the_variety_leaves_hom():
    """Constant images whose relator fails: the tangents vanish and pass the
    cocycle check, so only the relator check stops the first grid point."""
    c = lambda v: Poly.const(3, v)
    images = {"a1": [[c(2.0), c(0.1)], [Poly(3), c(0.5)]],
              "b1": [[c(3.0), Poly(3)], [Poly(3), c(1 / 3)]],
              "a2": [[c(1.0), Poly(3)], [Poly(3), c(1.0)]],
              "b2": [[c(1.0), Poly(3)], [Poly(3), c(2.0)]]}
    fam = FamilySpec(Presentation.surface(2), GL2, ("s1", "s2", "s3"), (0.2,) * 3,
                     images)
    with pytest.raises(NotTangent, match="family leaves Hom"):
        family_pullback(fam, trace_form(), grid=2)


class TestFamilyInput:
    def test_degree_three_is_degree_mismatch(self, family):
        subs = [Poly.var(2, 0), Poly.var(2, 1), Poly.var(2, 0) * Poly.var(2, 1)]
        with pytest.raises(DegreeMismatch):
            compare_base_change(family, power_trace(3), subs, ("u1", "u2"),
                                (0.2, 0.2), rng=np.random.default_rng(0))
        with pytest.raises(DegreeMismatch):
            family_pullback(family, power_trace(3), grid=2)

    def test_grid_below_one(self, family):
        for grid in (0, -1):
            with pytest.raises(InvalidInput, match="grid"):
                family_pullback(family, trace_form(), grid=grid)

    def test_short_domain_radius(self, family):
        data = family_payload(family)["family"]
        data["domain_radius"] = data["domain_radius"][:2]
        with pytest.raises(InvalidInput, match="domain_radius"):
            family_from_json(data, family.presentation, family.group)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -0.2])
    def test_domain_radius_is_finite_and_positive(self, family, radius):
        data = family_payload(family)["family"]
        data["domain_radius"][1] = radius
        match = f"domain_radius .*{re.escape(str(radius))}"
        with pytest.raises(InvalidInput, match=match):
            family_from_json(data, family.presentation, family.group)
        with pytest.raises(InvalidInput, match=match):
            base_change(family, [Poly.var(2, 0), Poly.var(2, 1), Poly.var(2, 0)],
                        ("u1", "u2"), (0.2, radius))

    def test_negative_power(self, family):
        data = family_payload(family)["family"]
        data["images"]["a1"][0][0][0]["powers"] = [-1, 0, 0]
        with pytest.raises(InvalidInput, match="powers"):
            family_from_json(data, family.presentation, family.group)

    def test_power_of_a_zero_term_is_checked_too(self, family):
        data = family_payload(family)["family"]
        data["images"]["a1"][0][0].append({"coeff": [0.0, 0.0],
                                           "powers": [1.5, 0, 0]})
        with pytest.raises(InvalidInput, match="'powers' entry"):
            family_from_json(data, family.presentation, family.group)

    def test_missing_params(self, family):
        data = family_payload(family)["family"]
        del data["params"]
        with pytest.raises(InvalidInput, match="params"):
            family_from_json(data, family.presentation, family.group)

    @staticmethod
    def _torus(**images):
        """A genus-1 GL(2) family of diagonal images in one parameter s, with
        the given images over them; an image given as None is left out."""
        s, one, zero = Poly.var(1, 0), Poly.const(1, 1.0), Poly(1)
        images = {"a1": [[one + s, zero], [zero, one]],
                  "b1": [[one, zero], [zero, one + s]], **images}
        return FamilySpec(Presentation.surface(1), GL2, ("s",), (0.2,),
                          {name: v for name, v in images.items() if v is not None})

    def test_images_name_the_generators(self):
        assert self._torus().validate() < 1e-12
        with pytest.raises(InvalidInput, match="not for"):
            self._torus(b1=None)
        with pytest.raises(InvalidInput, match="not for"):
            self._torus(c1=self._torus().images["a1"])

    def test_ragged_image_row(self):
        one, zero = Poly.const(1, 1.0), Poly(1)
        with pytest.raises(InvalidInput, match="must be 2 x 2"):
            self._torus(b1=[[one, zero], [one]])

    def test_entries_in_the_params(self):
        one, zero = Poly.const(2, 1.0), Poly(2)
        with pytest.raises(InvalidInput, match="Polys in 1 variables"):
            self._torus(b1=[[one, zero], [zero, one]])
        with pytest.raises(InvalidInput, match="Polys in 1 variables"):
            self._torus(b1=[[1.0, 0.0], [0.0, 1.0]])


class TestPullback:
    def test_closedness_report(self, family):
        report = family_pullback(family, trace_form(), grid=2)
        assert report["pass"]
        assert report["scale"] > 1.0
        assert report["max_d"] <= 1e-5 * report["scale"]
        assert len(report["samples"]) == 8

    def test_max_d_from_the_shared_jet(self, family):
        # the report's max_d is the charts' exact operator on the family's
        # record and tangents at s = 0
        report = family_pullback(family, trace_form(), grid=2)
        cycle = fundamental_two_cycle(family.presentation)
        basis = lie_algebra_basis(family.group)
        tensor = symmetric_tensor(trace_form(), basis)
        point, sigma = charforms.families._coefficients(
            family, tensor, cycle, np.zeros(family.m))[1]
        jet = _jet(basis, point, np.moveaxis(sigma, 0, -1), tensor, cycle)[0]
        assert report["max_d"] == _max_d(jet) == 0.0

    def test_infinite_polynomial_does_not_pass(self, family):
        """An infinite coefficient of phi makes every pulled-back coefficient
        NaN or infinite; the verdict is not a pass."""
        with np.errstate(invalid="ignore"):
            report = family_pullback(family, combination([(np.inf, trace_form())]),
                                     grid=2)
        assert not np.isfinite(report["max_d"]) or not np.isfinite(report["scale"])
        assert report["pass"] is False

    def test_two_parameters_do_not_pass(self):
        """Below 3 parameters there is no triple to check: max_d reads 0 while
        the grid gives a nonzero scale, and the verdict is no pass."""
        report = family_pullback(random_family(2, 2, 0, m=2), trace_form(), grid=3)
        assert report["max_d"] == 0.0
        assert np.isfinite(report["scale"]) and report["scale"] > 0.1
        assert report["pass"] is False

    def test_coefficients_not_constant(self, family):
        report = family_pullback(family, trace_form(), grid=2)
        col = [smp["coefficients"]["0,1"] for smp in report["samples"]]
        assert max(abs(a - b) for a in col for b in col) > 1.0


def _free_family(n, seed, m=3):
    """Seeded m-parameter family on F_2 = <a, b> in GL(n): every entry of
    both images a polynomial of degree at most 2 with complex coefficients
    of size 0.3, plus 1 on the diagonal, so the images do not commute."""
    rng = np.random.default_rng(seed)
    z = lambda: complex(0.3 * (rng.standard_normal() + 1j * rng.standard_normal()))
    monomials = [p for p in np.ndindex(*(3,) * m) if sum(p) <= 2]
    images = {name: [[Poly(m, {p: (i == j and sum(p) == 0) + z() for p in monomials})
                      for j in range(n)] for i in range(n)] for name in "ab"}
    return FamilySpec(Presentation.free(["a", "b"]), GroupSpec("GL", n),
                      tuple(f"s{k + 1}" for k in range(m)), (0.2,) * m, images)


def _exact_d(family, chain):
    """(d omega)_012 at s = 0 of the trace-form pullback against chain:
    ``charts._jet`` on the family's record and tangents there."""
    basis = lie_algebra_basis(family.group)
    tensor = symmetric_tensor(trace_form(), basis)
    point, sigma = charforms.families._coefficients(
        family, tensor, chain, np.zeros(family.m))[1]
    jet = _jet(basis, point, np.moveaxis(sigma, 0, -1), tensor, chain)[0]
    return jet[0, 1, 2] - jet[1, 0, 2] + jet[2, 0, 1]


def _isotropic_family():
    """Genus-3 diagonal GL(2) family whose i-th handle moves with s_i alone:
    omega pairs a_i with b_i, so it vanishes identically, and exact d omega
    at s = 0 is 0.0, while the grid coefficients are rounding."""
    s = [Poly.var(3, k) for k in range(3)]
    c = lambda v: Poly.const(3, v)
    diag = lambda p, q: [[p, Poly(3)], [Poly(3), q]]
    rng = np.random.default_rng(0)
    images = {}
    for i in range(3):
        z = np.exp(0.3 * rng.standard_normal(4) + 0.3j * rng.standard_normal(4))
        images[f"a{i + 1}"] = diag(c(z[0]) + 0.7 * s[i], c(z[1]) - 0.3 * s[i])
        images[f"b{i + 1}"] = diag(c(z[2]) + 0.2 * s[i], c(z[3]) + s[i] * s[i])
    return FamilySpec(Presentation.surface(3), GL2, ("s1", "s2", "s3"), (0.2,) * 3,
                      images)


def _verdict_inputs(monkeypatch, family):
    """The (max_d, scale, m, floor) that ``family_pullback`` at grid 3 hands
    ``charts._closed``, and its report."""
    seen = []
    monkeypatch.setattr(charforms.families, "_closed",
                        lambda *a, _closed=charforms.families._closed:
                        seen.append(a) or _closed(*a))
    report = family_pullback(family, trace_form(), grid=3)
    return seen[0], report


class TestExactClosedness:
    """The family verdict is the charts' operator at s = 0: d omega there
    reads only the family's 1-jet, the tangents sigma(0)."""

    A, B = Word.generator(0), Word.generator(1)

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_matches_central_differences_off_the_cycles(self, n, seed):
        # non-commuting images and a chain that is no cycle: d omega is of
        # the order of omega, and the alternated pairing (P - P^T) / 2 from
        # families._coefficients, differenced along 1 and i, agrees with it
        family, h = _free_family(n, seed), 1e-3
        chain = BarChain.of(2, {(self.A, self.B): 1, (self.A * self.B, self.B): -1})
        exact = _exact_d(family, chain)
        tensor = symmetric_tensor(trace_form(), lie_algebra_basis(family.group))
        p = charforms.families._coefficients(family, tensor, chain, _stencil(3, h))[0]
        w = ((p - np.swapaxes(p, -1, -2)) / 2).reshape(3, 2, 2, 3, 3)
        partial = ((w[:, :, 0] - w[:, :, 1])
                   / (h * np.array([1, 1j]))[:, None, None]).mean(axis=1)
        fd = partial[0, 1, 2] - partial[1, 0, 2] + partial[2, 0, 1]
        assert abs(exact) >= 0.1
        assert abs(exact - fd) <= 1e-9 * abs(exact)

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1)])
    def test_vanishes_on_a_bar_boundary(self, n, seed):
        a, b = self.A, self.B
        cycle = bar_boundary(BarChain.of(3, {(a, b, a): 1, (b, a * b, b): 1}))
        assert abs(_exact_d(_free_family(n, seed), cycle)) <= 1e-13

    @pytest.mark.parametrize("build", [
        diagonal_family, lambda: random_family(2, 2, 1), lambda: random_family(2, 3, 2),
        lambda: random_family(3, 2, 3), lambda: random_family(3, 3, 4)])
    def test_diagonal_families_read_zero_far_above_the_floor(self, build, monkeypatch):
        (max_d, scale, m, floor), report = _verdict_inputs(monkeypatch, build())
        assert report["pass"] and report["max_d"] == max_d == 0.0
        assert scale == report["scale"] >= 1e6 * floor > 0
        assert sorted(report) == ["check", "grid", "max_d", "pass", "samples", "scale"]

    def test_isotropic_family_is_no_pass(self, monkeypatch):
        # max_d is exactly 0 and the scale is rounding, nonzero: without the
        # floor, max_d <= 1e-5 * scale would pass
        (max_d, scale, m, floor), report = _verdict_inputs(monkeypatch,
                                                           _isotropic_family())
        assert max_d == 0.0 and 0 < scale <= 1e-6 * floor
        assert report["pass"] is False

    def test_one_jet_per_check(self, family, monkeypatch):
        # one walk of the grid and s = 0, one dual walk and pairing at s = 0
        calls = Counter()
        _counting(monkeypatch, calls, "jet", charforms.families, "_jet")
        _counting(monkeypatch, calls, "walk", charforms.families, "_walk")
        _counting(monkeypatch, calls, "dual walk", charforms.charts, "walk_words")
        family_pullback(family, trace_form(), grid=3)
        assert calls == {"jet": 1, "walk": 1, "dual walk": 1}


class TestBaseChange:
    def test_compose_consistency(self, family):
        rng = np.random.default_rng(1)
        subs = []
        for _ in range(3):
            keys = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
            subs.append(Poly(2, {k: 0.1 * (rng.standard_normal()
                                           + 1j * rng.standard_normal())
                                 for k in keys}))
        pulled = base_change(family, subs, ("u1", "u2"), (0.2, 0.2))
        u = np.array([0.05, -0.08], dtype=complex)
        s = np.array([p(u) for p in subs])
        for k in range(family.presentation.p):
            assert np.allclose(pulled.rep_at(u).images[k],
                               family.rep_at(s).images[k], atol=1e-12)

    def test_chain_rule_identity(self, family):
        rng = np.random.default_rng(2)
        keys = [(0, 0), (1, 0), (0, 1), (2, 0)]
        subs = [Poly(2, {k: 0.1 * (rng.standard_normal()
                                   + 1j * rng.standard_normal())
                         for k in keys}) for _ in range(3)]
        dev = compare_base_change(family, trace_form(), subs,
                                  ("u1", "u2"), (0.2, 0.2), rng=rng)
        assert dev < 1e-8
