"""Workload mixes and the correctness checks applied to every report.

A workload is a weighted mix of rungs.  One cycle runs every point of the
pool once, in an interleaved order, so any whole number of cycles holds the
rungs in exactly the mix proportions.  The weights place the median and the
tail percentile inside a rung's band of task times, not on the boundary
between two rungs, where the reported value would jump from run to run.

The tail percentile is fixed per workload, so that later runs report the
same quantile: a percentile inside a rung's band with at least ten passing
samples beyond it at the seed commit, as high as that allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ladder import FAMILY_GRID, FAMILY_PARAMS, Rung, expected_dims


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple        # ((Rung, weight), ...)
    tail_pct: float
    args: tuple = ()  # extra CLI arguments


def _mix(command, surfaces=(), free=()):
    """The ((Rung, weight), ...) pairs of one command: ``surfaces`` as
    (genus, kind, n, weight) and ``free`` as (generators, kind, n, weight)."""
    return (tuple((Rung(command, kind, n, genus=g), w) for g, kind, n, w in surfaces)
            + tuple((Rung(command, kind, n, free=p), w) for p, kind, n, w in free))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("goldman-ladder", _mix("goldman", (
        (1, "SL", 2, 8), (2, "SL", 2, 16), (2, "GL", 2, 4), (3, "SL", 2, 5),
        (2, "SL", 3, 2), (4, "SL", 2, 1), (3, "SL", 3, 1))),
        tail_pct=85.0),
    # p95 stays inside the band of the slowest rungs; p99 measured
    # scheduler hiccups and spread 0.24 across three seeds (2-core Xeon VM).
    Workload("cohomology-ladder", _mix("cohomology", (
        (1, "SL", 2, 4), (2, "SL", 2, 4), (3, "SL", 2, 4), (4, "SL", 2, 4),
        (2, "GL", 2, 4), (2, "SL", 3, 4), (3, "SL", 3, 4)),
        free=((2, "SL", 2, 4), (3, "SL", 2, 4))),
        tail_pct=95.0),
    # The acceptance point only.  On seeded points about 3 closedness tasks
    # in 10 fail (retraction drift, Gauss-Newton overflow), and a benchmark
    # workload must run without failures.  A cycle is 8 runs of the point.
    Workload("chart-closedness",
             ((Rung("closedness", "SL", 2, genus=2, fixed=True), 8),),
             tail_pct=75.0),
    Workload("family-pullback", _mix("family", (
        (2, "GL", 2, 8), (2, "GL", 3, 6), (3, "GL", 2, 4), (3, "GL", 3, 3))),
        tail_pct=52.0, args=("--grid", str(FAMILY_GRID))),
)}


def schedule(workload: Workload) -> list:
    """Pool order for one cycle: (rung, index within rung), interleaved so
    that every prefix of a cycle is close to the mix proportions."""
    keyed = []
    for r, (rung, weight) in enumerate(workload.mix):
        for j in range(weight):
            keyed.append(((j + 0.5) / weight, r, rung, j))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [(rung, j) for _, _, rung, j in keyed]


# ---------------------------------------------------------------------------
# checks; each returns the name of the first failed check, or None.  The
# bounds are fixed here, not read from the report under test.

SKEWNESS_BOUND = 1e-10  # ||G + G^T|| / ||G|| of the Goldman Gram matrix
FD_BOUND = 1e-5         # FD exterior derivative, relative to the form's scale


def _dims_check(rung: Rung, report: dict):
    exp = expected_dims(rung)
    if report.get("dims") != [exp["z1"], exp["b1"], exp["h1"]]:
        return "dims"
    return None


def check_cohomology(rung: Rung, report: dict, csv_rows):
    failed = _dims_check(rung, report)
    if failed:
        return failed
    if rung.genus and report.get("dim_h2") != expected_dims(rung)["h2"]:
        return "dim_h2"
    return None


def check_goldman(rung: Rung, report: dict, csv_rows):
    failed = _dims_check(rung, report)
    if failed:
        return failed
    h1 = expected_dims(rung)["h1"]
    try:
        gram = np.array(report.get("gram"), dtype=float)
    except (TypeError, ValueError):
        return "gram_shape"
    if gram.ndim == 3:  # complex entries as [re, im]
        gram = gram[..., 0] + 1j * gram[..., 1]
    if gram.shape != (h1, h1):
        return "gram_shape"
    if report.get("gram_rank") != h1:
        return "gram_rank"
    norm = np.linalg.norm(gram)
    if not (norm > 0 and np.linalg.norm(gram + gram.T) <= SKEWNESS_BOUND * norm):
        return "skewness"
    return None


def check_closedness(rung: Rung, report: dict, csv_rows):
    if not (report.get("scale", 0.0) > 0 and report.get("max_d", float("inf"))
            <= FD_BOUND * report["scale"]):
        return "fd_bound"
    return None


def check_family(rung: Rung, report: dict, csv_rows):
    rows = FAMILY_GRID ** FAMILY_PARAMS
    if csv_rows != rows + 1:  # header plus one row per grid point
        return "csv_rows"
    if len(report.get("samples", ())) != rows:
        return "samples"
    if not report.get("max_d", float("inf")) <= FD_BOUND * report.get("scale", 0.0):
        return "fd_bound"
    return None


CHECKS = {
    "cohomology": check_cohomology,
    "goldman": check_goldman,
    "closedness": check_closedness,
    "family": check_family,
}


def check(rung: Rung, report: dict, csv_rows):
    """Checks for an exit-0 report; the pass flag first, then the command's."""
    if report.get("pass") is not True:
        return "pass_flag"
    return CHECKS[rung.command](rung, report, csv_rows)


def corrupt(rung: Rung, report: dict, csv_rows):
    """A passing result with one checked value deliberately wrong: dims off
    by one where the command reports dims, else the FD verdict or the CSV."""
    bad = dict(report)
    if "dims" in bad:
        bad["dims"] = [bad["dims"][0], bad["dims"][1], bad["dims"][2] + 1]
    elif rung.command == "closedness":
        bad["max_d"] = 2 * FD_BOUND * bad["scale"]
    else:
        csv_rows -= 1
    return bad, csv_rows
