"""Batch command line interface.

JSON in, JSON out.  One input file describes the objects a command needs
(presentation, representation, invariant polynomial, family, cocycles); the
command writes a report with every tolerance it used echoed back, plus a
timestamp.  A report holds one sorted top-level key per line, its value in
compact JSON with sorted keys, so identical seeds and inputs reproduce
byte-identical files apart from the timestamp line.

Exit codes: 0 for PASS/success, 1 for a computational failure (a suite that
ran but failed its bound, or a solver that did not converge), 2 for invalid
input.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import sys

import numpy as np

from .charts import Chart, chart_closedness, free_group_demo
from .cohomology import _off_cocycle, cocycle_space, fox_jacobian, fundamental_two_cycle
from .errors import (
    CharformsError,
    InvalidInput,
    NoConvergence,
    RankInstability,
    malformed,
)
from .families import family_from_json, family_pullback
from .forms import (
    _conjugation_pairs,
    _draws,
    _paired,
    contraction_suite,
    gram_matrix,
    make_context,
)
from .invariants import check_invariance, polynomial_from_json, trace_form
from .matgroup import (
    GroupSpec,
    Representation,
    complex_from_json,
    complex_to_json,
    group_from_json,
    matrix_exp,
    representation_from_json,
)
from .numeric import DEFAULT_TOL, Tolerances
from .words import Presentation

__all__ = ["main"]


def _tolerances(args) -> Tolerances:
    if args.trials < 1:
        raise InvalidInput(f"--trials must be at least 1, got {args.trials}")
    return Tolerances(rank_rel=args.tol_rank, newton_tol=args.tol_newton)


def _load_input(path: str) -> dict:
    if path is None:
        raise InvalidInput("this command requires --input")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput(f"input must be a JSON object, not {type(data).__name__}")
    return data


def _presentation(data: dict) -> Presentation:
    if "presentation" not in data:
        raise InvalidInput("input needs a 'presentation' object")
    with malformed("'presentation'"):
        return Presentation.from_json(data["presentation"])


def _representation(data: dict, tol: Tolerances) -> Representation:
    if "representation" not in data:
        raise InvalidInput("input needs a 'representation' object")
    pres = _presentation(data)
    return representation_from_json(data["representation"], pres, tol=tol)


def _phi(data: dict):
    if "phi" not in data:
        return trace_form()
    with malformed("'phi'"):
        return polynomial_from_json(data["phi"])


def _rng(args):
    if args.seed is None:
        raise InvalidInput("--seed is mandatory for randomized commands")
    return np.random.default_rng(args.seed)


def _write_report(args, tol: Tolerances, report: dict) -> None:
    report["tolerances"] = {"rank_rel": tol.rank_rel, "newton_tol": tol.newton_tol}
    report["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    # indent= would force json's pure-Python encoder; compact values use C's
    text = "{\n" + ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(complex_to_json(report).items())) + "\n}"
    if args.output:
        with _open_output(args.output) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _open_output(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise InvalidInput(f"cannot write report: {exc}") from exc


# ---------------------------------------------------------------------------
# commands: each maps (args, tol, the loaded input) to a report with "pass"


def cmd_validate(args, tol: Tolerances, data: dict) -> dict:
    rho = _representation(data, tol)
    residuals = np.linalg.norm(rho._at.rel - np.eye(rho.group.n), axis=(-2, -1))
    report = {"relator_residuals": {f"relator_{i}": float(r)
                                    for i, r in enumerate(residuals)},
              "group": {"kind": rho.group.kind, "n": rho.group.n},
              "generators": list(rho.presentation.generator_names), "pass": True}
    if "family" in data:
        fam = family_from_json(data["family"], rho.presentation, rho.group, tol)
        report["family_residual"] = fam.validate()
    return report


def cmd_cohomology(args, tol: Tolerances, data: dict) -> dict:
    rho = _representation(data, tol)
    space = cocycle_space(rho)
    gap, h2 = space.rank_gap, space.h2_dim()
    report = {"dims": list(space.dims), "rank_gap": gap if np.isfinite(gap) else None,
              "pass": True}
    if h2 is not None:
        report["dim_h2"] = h2
    return report


def cmd_goldman(args, tol: Tolerances, data: dict) -> dict:
    rho = _representation(data, tol)
    ctx = make_context(rho, _phi(data))
    space = cocycle_space(rho)
    g, rank = gram_matrix(ctx, space.h1)
    norm = np.linalg.norm(g)
    skew = float(np.linalg.norm(g + g.T) / norm) if norm > 0 else 0.0
    # a zero Gram matrix is skew but shows nothing
    return {"dims": list(space.dims), "gram": g, "gram_rank": rank,
            "skewness": skew, "skewness_tol": 1e-10,
            "pass": bool(norm > 0 and skew <= 1e-10)}


def cmd_eta(args, tol: Tolerances, data: dict) -> dict:
    rho = _representation(data, tol)
    ctx = make_context(rho, _phi(data))
    n = ctx.degree
    if "cocycles" in data:
        with malformed("'cocycles'"):
            if len(data["cocycles"]) != n:
                raise InvalidInput(f"need {n} cocycles for a degree-{n} form")
            sigmas = complex_from_json(
                [[entry[name] for name in rho.presentation.generator_names]
                 for entry in data["cocycles"]], 3, "'cocycles'")
        if sigmas.shape[1:] != (rho.p, rho.dim_g):
            raise InvalidInput(f"a cocycle needs {rho.dim_g} [re, im] pairs "
                               "per generator")
        resid = np.linalg.norm(sigmas.reshape(n, -1) @ fox_jacobian(rho).T, axis=-1)
        for i in np.flatnonzero(_off_cocycle(resid, sigmas))[:1]:
            raise InvalidInput(f"'cocycles' entry {i} is not a cocycle: {resid[i]:.1e}")
        stack = sigmas.reshape(1, n, -1).swapaxes(1, 2)
    else:
        draws = _draws(cocycle_space(rho), _rng(args), n * args.trials)
        stack = draws.reshape(-1, args.trials, n).swapaxes(0, 1)
    # trial t pairs the n columns of its own leading index, read on the diagonal
    values = list(_paired(ctx, stack)[(slice(None),) + tuple(range(n))])
    return {"degree": n, "values": values, "pass": True}


def cmd_suite_basic(args, tol: Tolerances, data: dict) -> dict:
    rho = _representation(data, tol)
    ctx = make_context(rho, _phi(data))
    return contraction_suite(ctx, args.trials, _rng(args))


def cmd_suite_invariance(args, tol: Tolerances, data: dict) -> dict:
    rho = _representation(data, tol)
    phi = _phi(data)
    ctx, space = make_context(rho, phi), cocycle_space(rho)
    rng, x, s = _rng(args), [], []
    for _ in range(args.trials):  # each g, then its 3 pairs of cocycles
        v = rng.standard_normal(rho.dim_g) + 1j * rng.standard_normal(rho.dim_g)
        x.append(v / max(np.linalg.norm(v), 1.0))
        s.append(_draws(space, rng, 6))
    g = matrix_exp(rho.basis.matrix_from_coords(np.array(x)))
    worst, scale = _conjugation_pairs(ctx, g, np.array(s))
    phi_dev = check_invariance(phi, rho.basis, args.trials, rng)
    # a form that vanishes on every pair shows nothing
    return {"check": "conjugation-invariance", "max_dev": worst, "scale": scale,
            "phi_invariance_dev": phi_dev, "bound": 1e-9, "trials": args.trials,
            "pass": bool(worst <= 1e-9 and phi_dev <= 1e-9 and scale > 0)}


def cmd_closedness(args, tol: Tolerances, data: dict) -> dict:
    rho = _representation(data, tol)
    phi = _phi(data)
    space = cocycle_space(rho)
    if space.dims[2] < 3:
        raise InvalidInput("closedness needs dim H^1 >= 3 for a 3-dim chart")
    chart = Chart(rho, space.h1[:, :3])
    cycle = fundamental_two_cycle(rho.presentation)
    return {"check": "exterior-derivative", **chart_closedness(chart, phi, cycle)}


def cmd_family(args, tol: Tolerances, data: dict) -> dict:
    pres = _presentation(data)
    with malformed("'group' (family mode needs its 'kind' and 'n')"):
        group = group_from_json(data["group"])
    if "family" not in data:
        raise InvalidInput("input needs a 'family' object")
    fam = family_from_json(data["family"], pres, group, tol)
    fam.validate()
    report = family_pullback(fam, _phi(data), grid=args.grid)
    # one row per grid point: re and im of s, then of each coefficient w_kl
    report["csv"] = (args.output or "family").removesuffix(".json") + ".csv"
    pairs = sorted({key for smp in report["samples"] for key in smp["coefficients"]})
    with _open_output(report["csv"]) as fh:
        writer = csv.writer(fh)
        columns = (fam.params, [f"w_{k}" for k in pairs])
        writer.writerow([f"{part}_{c}" for cols in columns for part in ("re", "im")
                         for c in cols])
        for smp in report["samples"]:
            s, w = smp["s"], [smp["coefficients"][k] for k in pairs]
            writer.writerow([z.real for z in s] + [z.imag for z in s]
                            + [z.real for z in w] + [z.imag for z in w])
    return report


def cmd_demo_free_group(args, tol: Tolerances, data: None) -> dict:
    report = free_group_demo(2, GroupSpec("SL", 2), rng=_rng(args), tol=tol)
    report["pass"] = bool(report["nonclosed"]
                          and report["cycle_pairing"] <= 1e-8)
    return report


_COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "goldman": cmd_goldman,
    "eta": cmd_eta,
    "suite-basic": cmd_suite_basic,
    "suite-invariance": cmd_suite_invariance,
    "closedness": cmd_closedness,
    "family": cmd_family,
    "demo-free-group": cmd_demo_free_group,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charforms",
        description="Twisted cohomology and characteristic forms on "
                    "representation varieties.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", help="input JSON file")
    parser.add_argument("--output", help="report JSON file (default stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="rng seed; mandatory for randomized commands")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--grid", type=int, default=3)
    parser.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel)
    parser.add_argument("--tol-newton", type=float, default=DEFAULT_TOL.newton_tol)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = _tolerances(args)
        data = None if args.command == "demo-free-group" else _load_input(args.input)
        try:
            report = _COMMANDS[args.command](args, tol, data)
        except (NoConvergence, RankInstability) as exc:
            report = {"pass": False, "error": type(exc).__name__, "detail": str(exc)}
        report["command"] = args.command
        _write_report(args, tol, report)
    except CharformsError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)},
                         sort_keys=True))
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
