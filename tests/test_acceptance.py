"""Acceptance gate: ten criteria, one printed pass/fail line each.

Lines are written to the raw stdout stream so they stay visible under pytest
output capturing.  Every threshold is pinned in this file.
"""

import json
import sys

import numpy as np
import pytest

from charforms import (
    Chart,
    GroupRingElement,
    GroupSpec,
    Presentation,
    Word,
    cocycle_space,
    conjugation_invariance,
    eta,
    fox_derivative,
    fundamental_two_cycle,
    gram_matrix,
    make_context,
    parse_word,
    trace_form,
    verify_cycle,
)
from charforms.charts import eta_coefficients, fd_exterior_derivative, free_group_demo
from charforms.cli import main as cli_main
from charforms.forms import endomorphism_pullback, random_cocycle
from charforms.families import compare_base_change, family_pullback, Poly
from charforms.matgroup import coboundary, matrix_exp, representation_to_json

from test_forms import _to_matrices, oracle_eta

SL2 = GroupSpec("SL", 2)


def emit(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail}",
          file=sys.__stdout__)
    assert ok, f"acceptance criterion {number} ({name}): {detail}"


def random_word(rng, p, max_len):
    length = rng.integers(0, max_len + 1)
    return Word.of([(int(rng.integers(0, p)), int(rng.choice([-1, 1])))
                    for _ in range(length)])


def test_01_fox_identity():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        p = int(rng.integers(1, 6))
        w = random_word(rng, p, 40)
        total = GroupRingElement.zero()
        for k in range(p):
            xk = GroupRingElement.word(Word.generator(k)) - GroupRingElement.one()
            total = total + fox_derivative(w, k) * xk
        if total != GroupRingElement.word(w) - GroupRingElement.one():
            ok = False
            break
    emit(1, "fox-identity", ok,
         "w - 1 = sum_k fox(w,k)(x_k - 1) exactly, 1000 words, len <= 40, p <= 5")


def test_02_dimension_fixtures(f2_rep, genus2_rep, torus_rep):
    s_f2 = cocycle_space(f2_rep)
    s_g2 = cocycle_space(genus2_rep)
    s_t = cocycle_space(torus_rep)
    gap = min(s_f2.rank_gap, s_g2.rank_gap, s_t.rank_gap)
    ok = (s_f2.dims == (6, 3, 3) and s_g2.dims == (9, 3, 6)
          and s_t.dims[2] == 2 and gap >= 1e3)
    emit(2, "dimension-fixtures", ok,
         f"F2 {s_f2.dims}, genus-2 {s_g2.dims}, torus H1 {s_t.dims[2]}, "
         f"rank gap {gap:.2e} >= 1e3")


def test_03_fundamental_cycle():
    ok = True
    for genus in (1, 2, 3):
        pres = Presentation.surface(genus)
        chain = fundamental_two_cycle(pres)
        if not verify_cycle(chain, pres):
            ok = False
        for i in range(len(chain.terms)):
            if verify_cycle(chain.drop_term(i), pres):
                ok = False
    emit(3, "fundamental-cycle", ok,
         "boundary vanishes exactly for g = 1,2,3; every term essential")


def test_04_goldman_structure(genus2_rep):
    ctx = make_context(genus2_rep, trace_form())
    space = cocycle_space(genus2_rep)
    g, rank = gram_matrix(ctx, space.h1)
    skew = np.linalg.norm(g + g.T) / np.linalg.norm(g)
    rng = np.random.default_rng(104)
    worst_b1 = 0.0
    scale = 0.0
    for _ in range(50):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        db = coboundary(genus2_rep, v)
        t = random_cocycle(space, rng)
        u = random_cocycle(space, rng)
        worst_b1 = max(worst_b1, abs(eta(ctx, db, t)))
        scale = max(scale, abs(eta(ctx, u, t)))
    worst_conj = 0.0
    for _ in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        gmat = matrix_exp(genus2_rep.basis.matrix_from_coords(
            x / max(np.linalg.norm(x), 1.0)))
        worst_conj = max(worst_conj, conjugation_invariance(ctx, gmat, 2, rng))
    ok = (skew <= 1e-10 and worst_b1 <= 1e-9 * scale and rank == 6
          and worst_conj <= 1e-9)
    emit(4, "goldman-structure", ok,
         f"skewness {skew:.2e} <= 1e-10, B1 slot {worst_b1:.2e} <= "
         f"1e-9 * {scale:.2f}, Gram rank {rank} == 6, "
         f"conjugation dev {worst_conj:.2e} <= 1e-9")


def test_05_oracle_equivalence(torus_rep, genus2_rep):
    ok = True
    details = []
    for rho, genus in ((torus_rep, 1), (genus2_rep, 2)):
        ctx = make_context(rho, trace_form())
        space = cocycle_space(rho)
        rng = np.random.default_rng(105)
        worst, scale = 0.0, 0.0
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
        rel = worst / scale
        details.append(f"genus {genus}: {rel:.2e}")
        if rel >= 1e-11:
            ok = False
    emit(5, "oracle-equivalence", ok,
         "brute-force bar summation rel dev " + ", ".join(details)
         + " (bound 1e-11, 25 pairs each)")


def test_06_closedness_chart(genus2_rep):
    space = cocycle_space(genus2_rep)
    chart = Chart(genus2_rep, space.h1[:, :3])
    cycle = fundamental_two_cycle(genus2_rep.presentation)
    coeffs = eta_coefficients(chart, trace_form(), cycle)
    fd = fd_exterior_derivative(3, coeffs, h=3e-2)

    def perturbed(t):
        c = coeffs(t)
        c[(1, 2)] = c[(1, 2)] + 1e-3 * t[0]
        return c

    fd_bad = fd_exterior_derivative(3, perturbed, h=3e-2)
    ok = fd["max_d"] <= 1e-5 * fd["scale"] and fd_bad["max_d"] >= 1e-4
    emit(6, "closedness-chart", ok,
         f"max |d omega| {fd['max_d']:.2e} <= 1e-5 * {fd['scale']:.3f}; "
         f"1e-3 perturbation detected at {fd_bad['max_d']:.2e} >= 1e-4")


def test_07_family_mode(family):
    report = family_pullback(family, trace_form(), grid=2)
    rng = np.random.default_rng(107)
    worst_bc = 0.0
    for _ in range(5):
        keys = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
        subs = [Poly(2, {k: 0.1 * (rng.standard_normal()
                                   + 1j * rng.standard_normal())
                         for k in keys}) for _ in range(3)]
        worst_bc = max(worst_bc, compare_base_change(
            family, trace_form(), subs, ("u1", "u2"), (0.2, 0.2), rng=rng))
    ok = (report["max_d"] <= 1e-5 * report["scale"] and worst_bc <= 1e-8)
    emit(7, "family-mode", ok,
         f"max |d omega| {report['max_d']:.2e} <= 1e-5 * "
         f"{report['scale']:.3f}; base-change dev {worst_bc:.2e} <= 1e-8 "
         "over 5 reparametrizations")


def test_08_automorphism_equivariance(torus_rep):
    ctx = make_context(torus_rep, trace_form())
    names = torus_rep.presentation.generator_names
    rng = np.random.default_rng(108)
    _, swap = endomorphism_pullback(
        ctx, (parse_word("b1", names), parse_word("a1", names)),
        trials=5, rng=rng)
    _, shear = endomorphism_pullback(
        ctx, (parse_word("a1 b1", names), parse_word("b1", names)),
        trials=5, rng=rng)
    ok = (abs(swap["ratio"] + 1.0) <= 1e-8 and abs(shear["ratio"] - 1.0) <= 1e-8)
    emit(8, "automorphism-equivariance", ok,
         f"swap ratio {swap['ratio']:.10f} = -1 +- 1e-8, "
         f"shear ratio {shear['ratio']:.10f} = +1 +- 1e-8")


def test_09_negative_control():
    report = free_group_demo(2, SL2, rng=np.random.default_rng(109))
    ok = report["max_d"] >= 1e-3 * report["scale"] and report["scale"] > 0
    emit(9, "negative-control", ok,
         f"chain-level |d omega| {report['max_d']:.3f} >= 1e-3 * "
         f"{report['scale']:.3f} on Hom(F2, SL2) with Killing form")


def test_10_determinism(genus2_rep, tmp_path):
    payload = tmp_path / "in.json"
    payload.write_text(json.dumps({
        "presentation": genus2_rep.presentation.to_json(),
        "representation": representation_to_json(genus2_rep),
    }))
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(["suite-basic", "--input", str(payload),
                         "--seed", "11", "--trials", "10",
                         "--output", str(out)])
        data = json.loads(out.read_text())
        del data["timestamp"]
        texts.append((code, json.dumps(data, sort_keys=True)))
    ok = texts[0] == texts[1] and texts[0][0] == 0
    emit(10, "determinism", ok,
         "identical seeds give byte-identical reports modulo timestamp")
