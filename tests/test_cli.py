import contextlib
import copy
import functools
import io
import json
import operator
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from charforms import GroupSpec, Presentation, Representation, cli, errors, forms, matgroup
from charforms.cli import _COMMANDS, main
from charforms.families import FamilySpec, Poly
from charforms.cohomology import cocycle_space
from charforms.forms import _draws, eta, make_context, random_cocycle
from charforms.invariants import trace_form
from charforms.matgroup import (
    coboundary,
    complex_to_json,
    matrix_exp,
    representation_to_json,
)

from conftest import (
    diagonal_family,
    f2_point,
    family_payload,
    genus2_point,
    point_payload,
    random_family,
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, torus_rep, genus2_rep):
    base = tmp_path_factory.mktemp("cli")
    torus = base / "torus.json"
    torus.write_text(json.dumps(point_payload(torus_rep)))
    genus2 = base / "genus2.json"
    genus2.write_text(json.dumps(point_payload(genus2_rep)))
    family = base / "family.json"
    family.write_text(json.dumps(family_payload(diagonal_family())))
    return {"torus": str(torus), "genus2": str(genus2),
            "family": str(family), "dir": base}


def run(args, out_path):
    code = main(args + ["--output", str(out_path)])
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report


def test_validate(inputs, tmp_path):
    code, report = run(["validate", "--input", inputs["torus"]],
                       tmp_path / "r.json")
    assert code == 0
    assert report["relator_residuals"]["relator_0"] == 0.0
    assert "tolerances" in report and "timestamp" in report


def test_cohomology(inputs, tmp_path):
    code, report = run(["cohomology", "--input", inputs["genus2"]],
                       tmp_path / "r.json")
    assert code == 0
    assert report["dims"] == [9, 3, 6]
    # neither rank decision drops a nonzero singular value here
    assert report["rank_gap"] is None


def test_cohomology_builds_no_vector_and_no_h1(inputs, tmp_path, monkeypatch):
    """The cohomology report needs only the two rank decisions: the only
    SVDs are those two (no H^1 basis, and no SVD screen of the
    well-conditioned generator images)."""
    calls = {"svd": 0}
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    code, report = run(["cohomology", "--input", inputs["genus2"]], tmp_path / "r.json")
    assert code == 0 and report["dims"] == [9, 3, 6]
    assert calls == {"svd": 2}


def test_goldman(inputs, tmp_path):
    code, report = run(["goldman", "--input", inputs["genus2"]],
                       tmp_path / "r.json")
    assert code == 0
    assert report["gram_rank"] == 6
    assert report["skewness"] <= 1e-10


def test_eta_randomized(inputs, tmp_path):
    code, report = run(["eta", "--input", inputs["torus"],
                        "--seed", "1", "--trials", "3"], tmp_path / "r.json")
    assert code == 0
    assert len(report["values"]) == 3


def test_suite_basic(inputs, tmp_path):
    code, report = run(["suite-basic", "--input", inputs["genus2"],
                        "--seed", "2", "--trials", "10"], tmp_path / "r.json")
    assert code == 0
    assert report["pass"]
    assert report["max_dev"] <= 1e-9 * report["scale"]


def _vanishing_form(inputs, tmp_path) -> str:
    """The genus-2 input with phi = tr - Killing/4, which vanishes on sl(2)."""
    data = json.loads(Path(inputs["genus2"]).read_text())
    data["phi"] = {"kind": "combo", "terms": [
        {"kind": "trace_form", "coeff": [1.0, 0.0]},
        {"kind": "killing", "coeff": [-0.25, 0.0]}]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_suite_basic_fails_on_a_vanishing_form(inputs, tmp_path):
    """A contraction check on a form that vanishes shows nothing, so the
    report is no pass and the exit code 1."""
    code, report = run(["suite-basic", "--input", _vanishing_form(inputs, tmp_path),
                        "--seed", "2"], tmp_path / "r.json")
    assert code == 1 and report["pass"] is False
    assert report["scale"] == 0.0 and report["max_dev"] == 0.0


def test_goldman_fails_on_a_vanishing_form(inputs, tmp_path):
    """A zero Gram matrix is skew-symmetric but shows nothing."""
    code, report = run(["goldman", "--input", _vanishing_form(inputs, tmp_path)],
                       tmp_path / "r.json")
    assert code == 1 and report["pass"] is False
    assert report["gram_rank"] == 0 and report["skewness"] == 0.0


def test_suite_invariance_fails_on_a_vanishing_form(inputs, tmp_path):
    """A conjugation check on a form that vanishes on every pair shows
    nothing: its scale, the largest |eta| over the pairs, is 0."""
    code, report = run(["suite-invariance", "--input", _vanishing_form(inputs, tmp_path),
                        "--seed", "3", "--trials", "3"], tmp_path / "r.json")
    assert code == 1 and report["pass"] is False
    assert report["scale"] == 0.0 and report["max_dev"] == 0.0


def test_eta_pairs_all_trials_at_once(inputs, tmp_path, torus_rep, monkeypatch):
    """The random branch of eta pairs one stack of its trials, and trial t
    is eta of the draws t n, ..., t n + n - 1 of one Z^1 draw."""
    calls = {"pairing": 0}

    def counted(*args):
        calls["pairing"] += 1
        return pairing(*args)

    pairing = forms._cycle_pairing
    monkeypatch.setattr(forms, "_cycle_pairing", counted)
    code, report = run(["eta", "--input", inputs["torus"], "--seed", "4",
                        "--trials", "5"], tmp_path / "r.json")
    assert code == 0 and calls == {"pairing": 1}
    monkeypatch.undo()
    draws = _draws(cocycle_space(torus_rep), np.random.default_rng(4), 10)
    sigmas = list(draws.T)
    ctx = make_context(torus_rep, trace_form())
    expected = [eta(ctx, *sigmas[2 * t:2 * t + 2]) for t in range(5)]
    assert np.allclose([complex(*v) for v in report["values"]], expected,
                       rtol=1e-12, atol=1e-12 * max(map(abs, expected)))


def test_suite_invariance(inputs, tmp_path):
    code, report = run(["suite-invariance", "--input", inputs["genus2"],
                        "--seed", "3", "--trials", "3"], tmp_path / "r.json")
    assert code == 0
    assert report["pass"]
    assert report["max_dev"] <= 1e-9 and report["scale"] > 0.1


def test_suite_invariance_scale_is_the_largest_pair(inputs, tmp_path, genus2_rep):
    """The reported scale is the largest |eta_rho(s, t)| over the unit pairs
    each conjugation draws, and max_dev stays what conjugation_invariance
    returns: the rng draws in the same order as the command does."""
    code, report = run(["suite-invariance", "--input", inputs["genus2"],
                        "--seed", "3", "--trials", "2"], tmp_path / "r.json")
    rng = np.random.default_rng(3)
    ctx = make_context(genus2_rep, trace_form())
    worst = scale = 0.0
    for _ in range(2):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = matrix_exp(genus2_rep.basis.matrix_from_coords(
            x / max(np.linalg.norm(x), 1.0)))
        draws = rng.bit_generator.state
        worst = max(worst, forms.conjugation_invariance(ctx, g, 3, rng))
        rng.bit_generator.state = draws
        s = _draws(cocycle_space(genus2_rep), rng, 6)
        s = s / np.linalg.norm(s, axis=0)
        scale = max(scale, max(abs(eta(ctx, s[:, i], s[:, 3 + i])) for i in range(3)))
    assert code == 0
    assert report["max_dev"] == worst
    assert report["scale"] == pytest.approx(scale, rel=1e-12)


def test_suite_invariance_builds_one_cocycle_space(inputs, tmp_path, monkeypatch):
    """Every conjugation of one command draws from one cocycle space."""
    calls = {"cocycle_space": 0}

    def counted(rho):
        calls["cocycle_space"] += 1
        return cocycle_space(rho)

    monkeypatch.setattr(cli, "cocycle_space", counted)
    monkeypatch.setattr(forms, "cocycle_space", counted)
    code, report = run(["suite-invariance", "--input", inputs["genus2"],
                        "--seed", "3", "--trials", "5"], tmp_path / "r.json")
    assert code == 0 and report["trials"] == 5
    assert calls == {"cocycle_space": 1}


def test_suite_invariance_is_one_stacked_pass(inputs, tmp_path, monkeypatch):
    """All conjugations of one command are paired in one stack: two cycle
    pairings (at rho and at every g rho g^-1) and one Representation, the
    input point, for --trials 5."""
    calls = {"pairing": 0, "representation": 0}
    pairing, init = forms._cycle_pairing, Representation.__init__

    def counted_pairing(*args):
        calls["pairing"] += 1
        return pairing(*args)

    def counted_init(*args, **kwargs):
        calls["representation"] += 1
        init(*args, **kwargs)

    monkeypatch.setattr(forms, "_cycle_pairing", counted_pairing)
    monkeypatch.setattr(Representation, "__init__", counted_init)
    code, report = run(["suite-invariance", "--input", inputs["genus2"],
                        "--seed", "3", "--trials", "5"], tmp_path / "r.json")
    assert code == 0 and report["trials"] == 5
    assert calls == {"pairing": 2, "representation": 1}


def test_validate_evaluates_the_relators_once(inputs, tmp_path, monkeypatch):
    """The relator residuals of the report are those of the point's record."""
    calls = {"word_values": 0}
    word_values = matgroup._word_values

    def counted(*args):
        calls["word_values"] += 1
        return word_values(*args)

    monkeypatch.setattr(matgroup, "_word_values", counted)
    code, report = run(["validate", "--input", inputs["genus2"]], tmp_path / "r.json")
    assert code == 0 and len(report["relator_residuals"]) == 1
    assert calls == {"word_values": 1}


@pytest.mark.parametrize("power", [2 ** 63, 2 ** 40, 1025, 1024])
def test_family_exponents_are_bounded(inputs, tmp_path, capsys, power):
    """An exponent above 1024 exits 2 as InvalidInput: 2^63 no longer
    overflows int64 and 2^40 no longer asks for a table of 2^40 powers.
    1024 itself is accepted."""
    data = json.loads(Path(inputs["family"]).read_text())
    data["family"]["images"]["a1"][0][0].append({"coeff": [0.5, 0.0],
                                                 "powers": [power, 0, 0]})
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main(["family", "--input", str(path), "--grid", "2",
                 "--output", str(tmp_path / "r.json")])
    out, err = capsys.readouterr()
    if power > 1024:
        assert code == 2 and err == ""
        assert json.loads(out) == {"error": "InvalidInput", "detail": (
            f"powers ({power}, 0, 0) need 3 entries, each at most 1024")}
    else:
        assert code == 0 and out == ""


def test_family_with_csv(inputs, tmp_path):
    out = tmp_path / "fam.json"
    code, report = run(["family", "--input", inputs["family"], "--grid", "2"], out)
    assert code == 0
    assert report["pass"]
    csv_text = (tmp_path / "fam.csv").read_text().splitlines()
    assert csv_text[0].startswith("re_s1")
    assert len(csv_text) == 1 + 8  # header + 2^3 grid points


def test_family_reports_fd_error(inputs, tmp_path):
    """d omega at s = 0 is exact, so the family report carries no FD error
    estimate, no Cauchy-Riemann deviation and no step, and the step flag is
    gone: argparse refuses it with exit code 2."""
    code, report = run(["family", "--input", inputs["family"], "--grid", "2"],
                       tmp_path / "fam.json")
    assert code == 0 and report["pass"]
    assert report["max_d"] == 0.0 and report["scale"] > 1.0  # a diagonal family
    assert sorted(report) == ["check", "command", "csv", "grid", "max_d", "pass",
                              "samples", "scale", "timestamp", "tolerances"]
    with pytest.raises(SystemExit) as info:
        main(["family", "--input", inputs["family"], "--fd-step", "1e-3"])
    assert info.value.code == 2


def test_two_parameter_family_exits_1(tmp_path):
    """A 2-parameter family has a nonzero form but no triple to check, so
    its report is no pass, with finite numbers, and the exit code is 1."""
    fam = random_family(2, 2, 0, m=2)
    path = tmp_path / "family2.json"
    path.write_text(json.dumps(family_payload(fam)))
    code, report = run(["family", "--input", str(path)], tmp_path / "r.json")
    assert code == 1 and report["pass"] is False
    assert report["max_d"] == 0.0 and report["scale"] > 0.1


def test_demo_free_group(tmp_path):
    code, report = run(["demo-free-group", "--seed", "7"], tmp_path / "r.json")
    assert code == 0
    assert report["nonclosed"]


def test_determinism(inputs, tmp_path):
    """Two runs write byte-identical reports apart from the timestamp line."""
    for command in ("suite-basic", "goldman"):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([command, "--input", inputs["genus2"],
                         "--seed", "5", "--trials", "5",
                         "--output", str(out)]) == 0
            lines = out.read_text().splitlines(keepends=True)
            kept = [line for line in lines if '"timestamp"' not in line]
            assert len(kept) == len(lines) - 1
            texts.append("".join(kept))
        assert texts[0] == texts[1], command


def _sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@pytest.mark.parametrize("command", ["goldman", "cohomology", "closedness",
                                     "family", "eta", "suite-basic"])
def test_report_parses_to_the_stdlib_rendering(inputs, tmp_path, monkeypatch,
                                               command):
    """The one-key-per-line report parses to what json's own indented
    rendering of the same cleaned report parses to, with every object's keys
    sorted."""
    seen = []
    clean = cli.complex_to_json
    monkeypatch.setattr(cli, "complex_to_json",
                        lambda obj: seen.append(obj) or clean(obj))
    source = inputs["family" if command == "family" else "genus2"]
    out = tmp_path / "r.json"
    assert main([command, "--input", source, "--seed", "5", "--trials", "3",
                 "--grid", "2", "--output", str(out)]) == 0
    oracle = json.dumps(clean(seen[0]), sort_keys=True, indent=2)
    text = out.read_text()
    assert json.loads(text, object_pairs_hook=_sorted_object) == json.loads(oracle)
    assert text.count("\n") == 2 + len(seen[0])  # braces and one line a key


def test_json_clean_converts_arrays_exactly():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert complex_to_json(z) == [[[v.real, v.imag] for v in row]
                                  for row in z.tolist()]
    assert complex_to_json(z.real) == z.real.tolist()
    assert complex_to_json(np.arange(3)) == [0, 1, 2]


def _argv(inputs, command):
    """A passing run of each command."""
    source = {"family": ["--input", inputs["family"], "--grid", "2"],
              "demo-free-group": []}.get(command, ["--input", inputs["genus2"]])
    return [command, *source, "--seed", "7", "--trials", "3"]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_main_stamps_the_command_and_exits_by_pass(inputs, tmp_path, command):
    code, report = run(_argv(inputs, command), tmp_path / "r.json")
    assert report["command"] == command
    assert report["pass"] is True and code == 0


@pytest.mark.parametrize("outcome", ["fail", "NoConvergence", "RankInstability"])
def test_main_exits_1_on_a_failed_report_or_solver(inputs, tmp_path, monkeypatch,
                                                   outcome):
    def command(args, tol, data):
        assert data["presentation"] and args.command == "validate"
        if outcome == "fail":
            return {"pass": False}
        raise getattr(errors, outcome)("did not settle")

    monkeypatch.setitem(_COMMANDS, "validate", command)
    code, report = run(["validate", "--input", inputs["torus"]], tmp_path / "r.json")
    assert code == 1
    assert report["command"] == "validate" and report["pass"] is False
    if outcome != "fail":
        assert (report["error"], report["detail"]) == (outcome, "did not settle")


def test_parser_keeps_no_state_between_calls(inputs, tmp_path, capsys,
                                             monkeypatch):
    seen = []
    validate = _COMMANDS["validate"]
    monkeypatch.setitem(_COMMANDS, "validate", lambda args, tol, data: (
        seen.append(dict(vars(args))) or validate(args, tol, data)))
    out = str(tmp_path / "r.json")
    assert main(["validate", "--input", inputs["torus"], "--seed", "5",
                 "--grid", "2", "--trials", "3", "--output", out]) == 0
    _assert_invalid_input(capsys, ["eta", "--input", inputs["torus"]])
    assert main(["validate", "--input", inputs["torus"], "--output", out]) == 0
    assert [(a["seed"], a["grid"], a["trials"]) for a in seen] == [
        (5, 2, 3), (None, 3, 20)]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("command", ["goldman", "family"])
def test_unwritable_output_is_invalid_input(inputs, tmp_path, capsys, command):
    """The report (and for ``family`` the CSV beside it) cannot be created:
    one JSON error line and exit 2, not a traceback."""
    source = inputs["family" if command == "family" else "genus2"]
    out = tmp_path / "no" / "such" / "out.json"
    assert main([command, "--input", source, "--grid", "2",
                 "--output", str(out)]) == 2
    text, err = capsys.readouterr()
    assert len(text.splitlines()) == 1 and err == ""
    error = json.loads(text)
    assert error["error"] == "InvalidInput"
    assert error["detail"].startswith("cannot write report")


def test_missing_seed_is_invalid_input(inputs, tmp_path, capsys):
    code = main(["eta", "--input", inputs["torus"]])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "InvalidInput"


def test_missing_input_file(tmp_path, capsys):
    code = main(["validate", "--input", str(tmp_path / "nope.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "InvalidInput"


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", "--input", str(bad)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "InvalidInput"


def _point_input(tmp_path, rep, **changes):
    data = {"presentation": rep.presentation.to_json(),
            "representation": representation_to_json(rep)}
    data["representation"].update(changes)
    path = tmp_path / "point.json"
    path.write_text(json.dumps(data))
    return str(path)


def _assert_invalid_input(capsys, argv):
    code = main(argv)
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "InvalidInput"


def test_off_variety_point_is_invalid_input(genus2_rep, tmp_path, capsys):
    images = representation_to_json(genus2_rep)["images"]
    images["a1"], images["b1"] = images["b1"], images["a1"]
    path = _point_input(tmp_path, genus2_rep, images=images)
    _assert_invalid_input(capsys, ["cohomology", "--input", path])


def test_missing_generator_image_is_invalid_input(genus2_rep, tmp_path, capsys):
    images = representation_to_json(genus2_rep)["images"]
    del images["b1"]
    path = _point_input(tmp_path, genus2_rep, images=images)
    _assert_invalid_input(capsys, ["cohomology", "--input", path])


def test_unknown_group_kind_is_invalid_input(genus2_rep, tmp_path, capsys):
    path = _point_input(tmp_path, genus2_rep, group={"kind": "SO", "n": 2})
    _assert_invalid_input(capsys, ["cohomology", "--input", path])


def test_closedness_after_overflowing_step_is_typed(tmp_path):
    """The genus-2 GL(2) point (A, B, B, A) with A, B = expm(0.3 (N + iM)),
    N and M standard normal from seed 0: a full Gauss-Newton step of one of
    its retractions used to overflow expm and escape as a bare ValueError."""
    rng = np.random.default_rng(0)
    a, b = (scipy.linalg.expm(0.3 * (rng.standard_normal((2, 2))
                                     + 1j * rng.standard_normal((2, 2))))
            for _ in range(2))
    rho = Representation(Presentation.surface(2), GroupSpec("GL", 2), [a, b, b, a])
    code, report = run(["closedness", "--input", _point_input(tmp_path, rho)],
                       tmp_path / "r.json")
    assert code == 0 or (code == 1 and report["error"] == "NoConvergence")


def test_closedness_reports_fd_error(inputs, tmp_path):
    """d omega is exact at the center, so the report carries no FD error
    estimate and no Cauchy-Riemann deviation: only the verdict and the two
    numbers it compares."""
    code, report = run(["closedness", "--input", inputs["genus2"]],
                       tmp_path / "r.json")
    assert code == 0 and report["pass"]
    assert report["check"] == "exterior-derivative" and report["bound"] == 1e-5
    assert report["max_d"] <= 1e-11 * report["scale"]
    assert sorted(report) == ["bound", "check", "command", "max_d", "pass",
                              "scale", "timestamp", "tolerances"]


def test_closedness_names_only_the_step_it_used(inputs, tmp_path):
    """The closedness check uses no step: neither its report nor the
    tolerance echo names one."""
    code, report = run(["closedness", "--input", inputs["genus2"]], tmp_path / "r.json")
    assert code == 0
    assert report["tolerances"] == {"rank_rel": 1e-10, "newton_tol": 1e-12}
    keys = [key for key, value in report.items()
            for key in (key, *(value if isinstance(value, dict) else ()))]
    assert [key for key in keys if "step" in key or key == "h"] == []
    for flag in ("--fd-chart-step", "--fd-step"):  # both step flags are gone
        with pytest.raises(SystemExit):
            main(["closedness", "--input", inputs["genus2"], flag, "0.02"])


def _family_input(tmp_path, drop=None, **changes):
    """The diagonal family's CLI input with top-level ``changes`` and one
    key removed: ``drop`` = (object name, key)."""
    data = family_payload(diagonal_family())
    data.update(changes)
    if drop:
        del data[drop[0]][drop[1]]
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    return str(path)


def _family_power_input(tmp_path, command, power):
    """The diagonal family's input with the exponent 1 of s1 in a1[0][0] set
    to ``power``; for ``validate`` it also carries the family's point at 0."""
    fam = diagonal_family()
    data = family_payload(fam)["family"]
    data["images"]["a1"][0][0][1]["powers"][0] = power
    point = {"representation": representation_to_json(fam.rep_at(np.zeros(3)))}
    return _family_input(tmp_path, family=data,
                         **(point if command == "validate" else {}))


@pytest.mark.parametrize("power", [1.5, True, "1", -1])
@pytest.mark.parametrize("command", ["family", "validate"])
def test_family_power_not_a_natural_is_invalid_input(tmp_path, capsys, command,
                                                     power):
    """A monomial power is refused, not truncated, unless it is a
    non-negative integer."""
    path = _family_power_input(tmp_path, command, power)
    assert main([command, "--input", path, "--grid", "2"]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""
    error = json.loads(out)
    assert error["error"] == "InvalidInput" and "'powers'" in error["detail"]


@pytest.mark.parametrize("command", ["family", "validate"])
def test_family_repeated_monomial_is_invalid_input(tmp_path, capsys, command):
    """Two terms of one entry with the same powers are refused, naming the
    monomial, where the second used to replace the first."""
    path = _family_power_input(tmp_path, command, 1)
    data = json.loads(Path(path).read_text())
    entry = data["family"]["images"]["a1"][0][0]
    entry.append({"coeff": [2.0, 0.0], "powers": list(entry[1]["powers"])})
    Path(path).write_text(json.dumps(data))
    assert main([command, "--input", path, "--grid", "2"]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "InvalidInput"
    assert "repeats the monomial" in error["detail"]
    assert str(entry[1]["powers"]) in error["detail"]


@pytest.mark.parametrize("command", ["family", "validate"])
def test_family_integral_float_power_is_accepted(tmp_path, command):
    reports = []
    for power in (2, 2.0):
        code, report = run([command, "--input",
                            _family_power_input(tmp_path, command, power),
                            "--grid", "2"], tmp_path / "r.json")
        assert code == 0
        del report["timestamp"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("grid", ["-1", "0"])
def test_family_grid_below_one_is_invalid_input(tmp_path, capsys, grid):
    _assert_invalid_input(capsys, ["family", "--input", _family_input(tmp_path),
                                   "--grid", grid])


@pytest.mark.parametrize("drop", [("group", "n"), ("family", "params")])
def test_family_missing_field_is_invalid_input(tmp_path, capsys, drop):
    _assert_invalid_input(capsys, ["family", "--input",
                                   _family_input(tmp_path, drop=drop)])


def test_family_short_domain_radius_is_invalid_input(tmp_path, capsys):
    data = family_payload(diagonal_family())["family"]
    data["domain_radius"] = data["domain_radius"][:2]
    path = _family_input(tmp_path, family=data)
    _assert_invalid_input(capsys, ["family", "--input", path])


@pytest.mark.parametrize("flags", [["--tol-newton", "0"], ["--tol-newton", "-1"],
                                   ["--tol-rank", "nan"],
                                   ["--tol-rank", "1"]])
@pytest.mark.parametrize("command", ["closedness", "cohomology"])
def test_bad_tolerance_flag_is_invalid_input(inputs, capsys, flags, command):
    _assert_invalid_input(capsys, [command, "--input", inputs["genus2"], *flags])


@pytest.mark.parametrize("flag", ["--tol-newton", "--tol-rank"])
def test_infinite_tolerance_flag_is_invalid_input(genus2_rep, tmp_path, capsys, flag):
    """An infinite tolerance would pass any point (here one whose relator
    residual is of order 1) and write Infinity, which is not JSON.  The flag
    is refused before the point is read."""
    images = representation_to_json(genus2_rep)["images"]
    images["a1"], images["b1"] = images["b1"], images["a1"]
    path = _point_input(tmp_path, genus2_rep, images=images)
    assert main(["cohomology", "--input", path, flag, "inf"]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""
    error = json.loads(out)
    assert error["error"] == "InvalidInput" and "finite" in error["detail"]


def test_family_degree_three_is_degree_mismatch(tmp_path, capsys):
    path = _family_input(tmp_path, phi={"kind": "power_trace", "n": 3})
    assert main(["family", "--input", path]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "DegreeMismatch"


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_trials_below_one_is_invalid_input(inputs, capsys, command, trials):
    source = {"family": ["--input", inputs["family"]], "demo-free-group": []}
    argv = [command, *source.get(command, ["--input", inputs["genus2"]]),
            "--seed", "1", "--trials", trials]
    _assert_invalid_input(capsys, argv)


def _eta_input(tmp_path, rep, sigmas):
    names = rep.presentation.generator_names
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({
        "presentation": rep.presentation.to_json(),
        "representation": representation_to_json(rep),
        "cocycles": [dict(zip(names, complex_to_json(np.reshape(s, (rep.p, -1)))))
                     for s in sigmas]}))
    return str(path)


def test_eta_refuses_values_that_are_not_cocycles(genus2_rep, tmp_path, capsys):
    rng = np.random.default_rng(0)
    sigmas = [rng.standard_normal(12) + 1j * rng.standard_normal(12) for _ in range(2)]
    assert main(["eta", "--input", _eta_input(tmp_path, genus2_rep, sigmas)]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""
    assert json.loads(out)["error"] == "InvalidInput"
    assert "is not a cocycle" in json.loads(out)["detail"]


@pytest.mark.parametrize("with_coboundary", [False, True])
def test_eta_of_cocycles_keeps_its_value(genus2_rep, tmp_path, with_coboundary):
    rng = np.random.default_rng(1)
    space = cocycle_space(genus2_rep)
    s, t = random_cocycle(space, rng), random_cocycle(space, rng)
    if with_coboundary:
        s = s + coboundary(genus2_rep, 10 * rng.standard_normal(3))
    expected = eta(make_context(genus2_rep, trace_form()), s, t)
    code, report = run(["eta", "--input", _eta_input(tmp_path, genus2_rep, [s, t])],
                       tmp_path / "r.json")
    assert code == 0
    assert report["values"] == [[expected.real, expected.imag]]


def _cocycle(genus2_rep, length):
    return {name: [[1.0, 0.5] for _ in range(length)]
            for name in genus2_rep.presentation.generator_names}


@pytest.mark.parametrize("case", ["unknown kind", "power_trace without n",
                                  "short cocycle rows", "ragged cocycle rows",
                                  "cocycle entry not a pair",
                                  "missing generator"])
def test_malformed_phi_or_cocycles_is_invalid_input(genus2_rep, tmp_path,
                                                    capsys, case):
    good, short = _cocycle(genus2_rep, 3), _cocycle(genus2_rep, 2)
    extra = {"unknown kind": {"phi": {"kind": "cubic"}},
             "power_trace without n": {"phi": {"kind": "power_trace"}},
             "short cocycle rows": {"cocycles": [short, short]},
             "ragged cocycle rows": {"cocycles": [dict(good, b1=short["b1"]),
                                                  good]},
             "cocycle entry not a pair": {"cocycles": [dict(good, a1=[[1.0]] * 3),
                                                       good]},
             "missing generator": {"cocycles": [{"a1": good["a1"]}, good]}}[case]
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"presentation": genus2_rep.presentation.to_json(),
                                "representation": representation_to_json(genus2_rep),
                                **extra}))
    _assert_invalid_input(capsys, ["eta", "--input", str(path), "--seed", "1"])



# case: (command, keys of the entry, the malformed value (None deletes it),
# the error reported); a library error keeps its own name
_MALFORMED = {
    "real matrix": ("cohomology", ("representation", "images", "a1"),
                    [[2.0, 1.0], [1.0, 1.0]], "InvalidInput"),
    "no generators": ("cohomology", ("presentation", "generators"), None,
                      "InvalidInput"),
    "duplicate generators": ("cohomology", ("presentation",),
                             {"generators": ["a", "a"]}, "InvalidInput"),
    "n not a number": ("cohomology", ("representation", "group", "n"), "two",
                       "InvalidInput"),
    "n not an integer": ("cohomology", ("representation", "group", "n"), 2.7,
                         "InvalidInput"),
    "family n not an integer": ("family", ("group", "n"), 2.5, "InvalidInput"),
    "power_trace n not an integer": ("family", ("phi",),
                                     {"kind": "power_trace", "n": 3.5},
                                     "InvalidInput"),
    "generators a string": ("cohomology", ("presentation", "generators"),
                            "a1b1a2b2", "InvalidInput"),
    "relators a string": ("cohomology", ("presentation", "relators"),
                          "a1b1", "InvalidInput"),
    "NaN entry": ("cohomology", ("representation", "images", "a1", 0, 0),
                  [float("nan"), 0.0], "InvalidInput"),
    "one-number coefficient": ("family", ("family", "images", "a1", 0, 0, 0,
                                          "coeff"), [1], "InvalidInput"),
    "powers not a list": ("family", ("family", "images", "a1", 0, 0, 0,
                                     "powers"), 0, "InvalidInput"),
    "singular image": ("cohomology", ("representation", "images", "a1"),
                       [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                       "SingularMatrix"),
    "unknown generator": ("cohomology", ("presentation", "relators"),
                          ["a1 c9"], "UnknownGenerator"),
    "malformed word": ("family", ("presentation", "relators"), ["a1^x"],
                       "WordSyntaxError"),
    "three-number coefficient": ("family", ("family", "images", "a1", 0, 0, 0,
                                            "coeff"), [1, 0, 5], "InvalidInput"),
    "NaN coefficient": ("family", ("family", "images", "a1", 0, 0, 0, "coeff"),
                        [float("nan"), 0.0], "InvalidInput"),
    "infinite phi coefficient": ("family", ("phi",), {"kind": "combo", "terms": [
        {"coeff": [float("inf"), 0.0], "kind": "trace_form"}]}, "InvalidInput"),
    "NaN cocycle entry": ("eta", ("cocycles", 0, "a1", 0), [float("nan"), 0.5],
                          "InvalidInput"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exits_2_with_one_error_line(genus2_rep, tmp_path,
                                                     capsys, case):
    """Each malformed input exits 2 with one JSON error line: none ends in a
    traceback (TypeError, KeyError, ValueError or IndexError), and a size or
    degree that is not an integer, or generators or relators given as one
    string, is refused instead of truncated or split into letters.  A complex
    value that is not a pair of finite numbers is refused, not cut to its
    first two numbers or carried into the report as NaN."""
    command, keys, value, error = _MALFORMED[case]
    if command == "family":
        data = family_payload(diagonal_family())
    else:
        data = {"presentation": genus2_rep.presentation.to_json(),
                "representation": representation_to_json(genus2_rep),
                "cocycles": [_cocycle(genus2_rep, 3) for _ in range(2)]}
    entry = functools.reduce(operator.getitem, keys[:-1], data)
    if value is None:
        del entry[keys[-1]]
    else:
        entry[keys[-1]] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([command, "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""
    assert json.loads(out)["error"] == error


def test_exact_zero_pivot_is_singular_matrix(tmp_path, capsys):
    """An image that np.linalg.inv finds exactly singular, but whose smallest
    singular value clears a cutoff of 1e-20, exits 2 as SingularMatrix, not
    as a malformed representation."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({
        "presentation": {"generators": ["a"], "relators": []},
        "representation": {"group": {"kind": "GL", "n": 2},
                           "images": {"a": complex_to_json(
                               np.array([[3, 1], [1, 1 / 3]], dtype=complex))}}}))
    assert main(["cohomology", "--input", str(path), "--tol-rank", "1e-20"]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""
    assert json.loads(out)["error"] == "SingularMatrix"


def _error(capsys, argv) -> dict:
    """The one JSON error line of a run that exits 2."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""
    return json.loads(out)


def test_no_input_flag_is_invalid_input(capsys):
    error = _error(capsys, ["validate"])
    assert error["error"] == "InvalidInput" and "--input" in error["detail"]


@pytest.mark.parametrize("command", ["cohomology", "validate", "family"])
@pytest.mark.parametrize("text", ["5", "null", "true", "[]", '"x"'])
def test_input_that_is_not_an_object_is_invalid_input(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    error = _error(capsys, [command, "--input", str(path)])
    assert error["error"] == "InvalidInput" and "JSON object" in error["detail"]


@pytest.mark.parametrize("command", ["eta", "suite-basic", "suite-invariance",
                                     "demo-free-group"])
def test_negative_seed_is_invalid_input(inputs, capsys, command):
    """--seed -1 on the acceptance point exits 2 with one JSON line naming
    InvalidInput and --seed, not numpy's uncaught ValueError."""
    argv = [command, "--seed", "-1"]
    if command != "demo-free-group":
        argv += ["--input", inputs["genus2"]]
    error = _error(capsys, argv)
    assert error["error"] == "InvalidInput" and "--seed" in error["detail"]


def test_singular_image_names_its_generator(tmp_path, capsys):
    """On F_2 with a = I and b of rank one, the error names b, not the
    position of its image in the stack of two."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps({
        "presentation": {"generators": ["a", "b"], "relators": []},
        "representation": {"group": {"kind": "GL", "n": 2}, "images": {
            "a": complex_to_json(np.eye(2, dtype=complex)),
            "b": complex_to_json(np.array([[1, 2], [1, 2]], dtype=complex))}}}))
    error = _error(capsys, ["cohomology", "--input", str(path)])
    assert error["error"] == "SingularMatrix"
    assert error["detail"].startswith("image of b: smallest singular value ")
    assert "matrix" not in error["detail"]


@pytest.mark.parametrize("command,drop", [("validate", "presentation"),
                                          ("cohomology", "representation"),
                                          ("family", "family")])
def test_missing_object_is_invalid_input(inputs, tmp_path, capsys, command, drop):
    source = inputs["family" if command == "family" else "genus2"]
    with open(source) as fh:
        data = json.load(fh)
    del data[drop]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    error = _error(capsys, [command, "--input", str(path)])
    assert error == {"error": "InvalidInput",
                     "detail": f"input needs a '{drop}' object"}


def test_eta_with_the_wrong_number_of_cocycles(genus2_rep, tmp_path, capsys):
    rng = np.random.default_rng(2)
    space = cocycle_space(genus2_rep)
    sigmas = [random_cocycle(space, rng) for _ in range(3)]
    error = _error(capsys, ["eta", "--input", _eta_input(tmp_path, genus2_rep, sigmas)])
    assert error == {"error": "InvalidInput",
                     "detail": "need 2 cocycles for a degree-2 form"}


def test_closedness_needs_three_chart_directions(inputs, capsys):
    # the generic diagonal torus point has dim H^1 = 2
    error = _error(capsys, ["closedness", "--input", inputs["torus"]])
    assert error["error"] == "InvalidInput" and "dim H^1 >= 3" in error["detail"]


def test_family_singular_at_a_grid_point_names_it(tmp_path, capsys):
    """diag(s, 1) and I commute, so the family passes validation at its
    random points, but its image of a1 is singular at the grid point s = 0.
    The error names that point and a1, not the index into the evaluated
    stack of 4 points times 2 generators."""
    one, zero, s = Poly.const(1, 1.0), Poly(1), Poly.var(1, 0)
    fam = FamilySpec(Presentation.surface(1), GroupSpec("GL", 2), ("s",), (0.2,),
                     {"a1": [[s, zero], [zero, one]], "b1": [[one, zero], [zero, one]]})
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_payload(fam)))
    error = _error(capsys, ["family", "--input", str(path), "--grid", "3"])
    assert error["error"] == "SingularMatrix"
    assert error["detail"].startswith("at s=[0.+0.j]: image of a1: ")
    assert "of 8" not in error["detail"]


def _torus_sl2_family(tmp_path, a1, b1):
    """Path of the CLI input of an SL(2) family on the torus whose images a1
    and b1 are 2 x 2 lists of polynomials in s1, s2."""
    fam = FamilySpec(Presentation.surface(1), GroupSpec("SL", 2), ("s1", "s2"),
                     (0.2, 0.2), {"a1": a1, "b1": b1})
    path = tmp_path / "sl2_family.json"
    path.write_text(json.dumps(family_payload(fam)))
    return str(path)


def test_sl_family_off_det_one_is_invalid_input(tmp_path, capsys):
    """diag(1 + s1, 1) and diag(1 + s2, 1) commute, so the torus relator
    holds, but their det is 1 + s: the family leaves SL(2) and exits 2, as a
    point off det = 1 does, where it used to pass with its tangents projected
    onto sl(2)."""
    one, zero, s1, s2 = Poly.const(2, 1.0), Poly(2), Poly.var(2, 0), Poly.var(2, 1)
    path = _torus_sl2_family(tmp_path, [[one + s1, zero], [zero, one]],
                             [[one + s2, zero], [zero, one]])
    assert main(["family", "--input", path, "--grid", "2"]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "InvalidInput" and "|det - 1|" in error["detail"]


def test_unipotent_sl_family_is_accepted(tmp_path):
    """[[1, s1], [0, 1]] and [[1, s2], [0, 1]] commute and have det 1, so the
    family passes validation and is sampled on the whole grid.  Its pulled-back
    form vanishes (scale 0), which shows nothing: the verdict is no pass."""
    one, zero, s1, s2 = Poly.const(2, 1.0), Poly(2), Poly.var(2, 0), Poly.var(2, 1)
    path = _torus_sl2_family(tmp_path, [[one, s1], [zero, one]],
                             [[one, s2], [zero, one]])
    code, report = run(["family", "--input", path, "--grid", "2"], tmp_path / "r.json")
    assert code != 2 and len(report["samples"]) == 4
    assert code == 1 and report["pass"] is False and report["scale"] == 0.0


def _phi_payload(rho, cocycles=0):
    """The CLI input of a point with the trace form and ``cocycles``
    seeded random cocycles at it."""
    rng, names = np.random.default_rng(0), rho.presentation.generator_names
    sigmas = [random_cocycle(cocycle_space(rho), rng) for _ in range(cocycles)]
    data = {**point_payload(rho), "phi": {"kind": "power_trace", "n": 2}}
    if sigmas:
        data["cocycles"] = [dict(zip(names, complex_to_json(s.reshape(rho.p, -1))))
                            for s in sigmas]
    return data


# valid inputs and the commands that read each
_VALID = {"point": _phi_payload(genus2_point(), cocycles=2),
          "free group": _phi_payload(f2_point()),
          "family": family_payload(diagonal_family())}
_POINT_COMMANDS = sorted(set(_COMMANDS) - {"family", "demo-free-group"})
_READERS = {"point": _POINT_COMMANDS, "free group": _POINT_COMMANDS,
            "family": ["family"]}
_LEAVES = [None, "x", 0, -1, 1e308, float("nan"), {}, [], "a1 b1^-1"]


def _paths(node, path=()):
    """The path of every key and list item below node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def _mutated_inputs(draw):
    """A command and its valid input with one key or list item deleted, or
    its value replaced by one of _LEAVES."""
    kind = draw(st.sampled_from(sorted(_VALID)))
    data = copy.deepcopy(_VALID[kind])
    path = draw(st.sampled_from(list(_paths(data))))
    parent = functools.reduce(operator.getitem, path[:-1], data)
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(_LEAVES)))
    return draw(st.sampled_from(_READERS[kind])), data


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated=_mutated_inputs())
def test_mutated_input_exits_with_one_json_object(mutation_dir, mutated):
    """A command on a mutated input exits 0, 1 or 2 with one JSON object on
    stdout, and an exit of 2 names a CharformsError: no input ends in an
    uncaught exception or a warning."""
    command, data = mutated
    path = mutation_dir / "input.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.chdir(mutation_dir)  # where the family command writes its CSV
        code = main([command, "--input", str(path), "--seed", "1", "--trials", "2",
                     "--grid", "2"])
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2) and isinstance(report, dict)
    if code == 2:
        assert issubclass(getattr(errors, report["error"]), errors.CharformsError)
