from collections import Counter

import numpy as np
import pytest

import charforms.families
from charforms import GroupSpec, Presentation, trace_form
from charforms.cohomology import fox_jacobian, fundamental_two_cycle
from charforms.forms import EtaContext, eta
from charforms.invariants import symmetric_tensor
from charforms.errors import InvalidInput, NotTangent
from charforms.families import (
    FamilySpec,
    Poly,
    base_change,
    compare_base_change,
    family_from_json,
    family_pullback,
    family_tangent,
    family_to_json,
)

GL2 = GroupSpec("GL", 2)


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
        assert p.diff(0).coeffs == (2.0 * x * y).coeffs
        assert p.diff(1).coeffs == (x * x + Poly.const(2, 3.0)).coeffs

    def test_call(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x * y + Poly.const(2, 1.0)
        assert p([2.0, 3.0 + 1.0j]) == pytest.approx(7.0 + 2.0j)

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
        data = family_to_json(family)
        back = family_from_json(data, family.presentation, family.group)
        s = np.array([0.03, -0.05, 0.02])
        for name in family.presentation.generator_names:
            assert np.allclose(back.matrix_at(name, s),
                               family.matrix_at(name, s), atol=1e-14)


class TestFamilyTangent:
    def test_is_cocycle(self, family):
        s = np.array([0.04, -0.02, 0.05], dtype=complex)
        rho = family.rep_at(s)
        jac = fox_jacobian(rho)
        for k in range(3):
            sigma = family_tangent(family, s, k)
            assert np.linalg.norm(jac @ sigma.stacked) < 1e-10

    def test_matches_finite_difference(self, family):
        s = np.zeros(3, dtype=complex)
        h = 1e-6
        for k in range(3):
            sigma = family_tangent(family, s, k)
            e = np.zeros(3, dtype=complex)
            e[k] = h
            rho_p = family.rep_at(s + e)
            rho_m = family.rep_at(s - e)
            rho0 = family.rep_at(s)
            for j in range(4):
                dm = (rho_p.images[j] - rho_m.images[j]) / (2 * h)
                fd = rho0.basis.coords_from_matrix(
                    dm @ np.linalg.inv(rho0.images[j]))
                assert np.linalg.norm(fd - sigma.values[j]) < 1e-8

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
            family_tangent(bad, np.array([0.1, 0.0, 0.0]), 0)


def test_coefficient_point_builds_rho_and_jacobian_once(family, monkeypatch):
    """One coefficient point of an m = 3 family builds one Representation and
    one Fox Jacobian, and its coefficients equal eta on family_tangent."""
    s = np.array([0.03, -0.02, 0.01], dtype=complex)
    phi = trace_form()
    rho = family.rep_at(s)
    tensor = symmetric_tensor(phi, rho.basis)
    cycle = fundamental_two_cycle(family.presentation).chain
    ctx = EtaContext(rho, phi, tensor, cycle)
    tangents = [family_tangent(family, s, k) for k in range(3)]
    expected = {(k, l): eta(ctx, tangents[k], tangents[l])
                for k in range(3) for l in range(k + 1, 3)}

    calls = Counter()
    fams = charforms.families
    rep_at, jacobian = FamilySpec.rep_at, fams.fox_jacobian

    def counted_rep_at(*args, **kwargs):
        calls["rep_at"] += 1
        return rep_at(*args, **kwargs)

    def counted_jacobian(*args):
        calls["fox_jacobian"] += 1
        return jacobian(*args)

    monkeypatch.setattr(FamilySpec, "rep_at", counted_rep_at)
    monkeypatch.setattr(fams, "fox_jacobian", counted_jacobian)
    coeffs = fams._coefficients_at(family, phi, tensor, cycle, s,
                                   fams.DEFAULT_TOL)
    assert calls == Counter(rep_at=1, fox_jacobian=1)
    assert coeffs == expected


class TestPullback:
    def test_closedness_report(self, family):
        report = family_pullback(family, trace_form(), grid=2, h=1e-3)
        assert report["pass"]
        assert report["scale"] > 1.0
        assert report["max_d"] <= 1e-5 * report["scale"]
        assert report["cauchy_riemann_dev"] < 1e-8
        assert len(report["samples"]) == 8

    def test_coefficients_not_constant(self, family):
        report = family_pullback(family, trace_form(), grid=2, h=1e-3)
        col = [smp["coefficients"]["0,1"] for smp in report["samples"]]
        assert max(abs(a - b) for a in col for b in col) > 1.0


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
        for name in family.presentation.generator_names:
            assert np.allclose(pulled.matrix_at(name, u),
                               family.matrix_at(name, s), atol=1e-12)

    def test_chain_rule_identity(self, family):
        rng = np.random.default_rng(2)
        keys = [(0, 0), (1, 0), (0, 1), (2, 0)]
        subs = [Poly(2, {k: 0.1 * (rng.standard_normal()
                                   + 1j * rng.standard_normal())
                         for k in keys}) for _ in range(3)]
        dev = compare_base_change(family, trace_form(), subs,
                                  ("u1", "u2"), (0.2, 0.2), rng=rng)
        assert dev < 1e-8
