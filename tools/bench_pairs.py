"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --number 26 --parent REV --seeds 101-110
        [--claim WORKLOAD:METRIC] [--note TEXT] [--workdir DIR] [--out FILE]

The parent revision and HEAD, the change, are exported with ``git archive``
into their own directory (under a fresh temporary directory unless
``--workdir`` is given), so each side runs only its committed files.  For
every seed, each workload of BENCHMARK.json runs once per side as
``perfbench/run.py --workload W --seed N --seconds S --trace 0``, S its
``run_seconds``; the parent runs first for odd seeds and the change first
for even seeds.

The file lists every run, and per workload and end-to-end metric the
medians and quartiles of both sides (numpy.percentile 25/50/75, linear
interpolation), the pairs the change wins, ``worse_by`` (the relative
worsening of the change's median, negative for a gain) against the bound
in BENCHMARK.json, the failed tasks and the pairs with equal report
digests.  A metric whose parent runs spread (interquartile range over
median) wider than its bound is ``resolved: false``, unless every change
run beats every parent run: its medians cannot show that it stayed within
the bound.  Those metrics are listed under ``unresolved``.  ``--claim``
names a metric that must improve: the change wins at least 9 of 10 pairs
and the difference of the medians exceeds the parent's interquartile
spread.  ``claim_met`` also needs every median within its bound, no more
failed tasks and every run correct; with a claim, one ``--trace 1`` run
per side of its workload, at seed TRACE_SEED, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACE_SEED = 3


def export(rev: str, dest: str) -> None:
    """The committed files of rev, extracted into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree: its result line and its report digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    digest = next((line.split()[-1] for line in lines
                   if line.strip().startswith("report digest")), None)
    return {**json.loads(lines[-1]), "digest": digest}


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = [f"python {platform.python_version()}", f"numpy {np.__version__}"]
    try:
        import scipy
        versions.append(f"scipy {scipy.__version__}")
    except ImportError:
        pass
    # when set, no .pyc is written: each run compiles src/ anew inside setup_s
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE") or "unset"
    return (f"{os.cpu_count()} CPUs, {cpu}, {', '.join(versions)}, "
            f"OPENBLAS_NUM_THREADS=1, PYTHONDONTWRITEBYTECODE={bytecode}; parent and "
            "change each ran from their own git archive of the committed files")


def summarize(pairs: list, spec: dict) -> dict:
    """Per metric of BENCHMARK.json's end_to_end: both sides' medians and
    quartiles, the pairs the change wins, the worsening against the bound and
    whether the parent's spread lets the medians tell."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: np.array([p[side][name] for p in pairs]) for side in SIDES}
        q = {side: np.percentile(values[side], [25, 50, 75]) for side in SIDES}
        ratio = q["change"][1] / q["parent"][1]
        wins = (values["change"] < values["parent"] if lower
                else values["change"] > values["parent"])
        worse = ratio - 1 if lower else 1 - ratio
        spread = (q["parent"][2] - q["parent"][0]) / q["parent"][1]
        apart = (values["change"].max() < values["parent"].min() if lower
                 else values["change"].min() > values["parent"].max())
        out[name] = {
            "parent_median": round(float(q["parent"][1]), 4),
            "parent_quartiles": [round(float(v), 4) for v in q["parent"]],
            "change_median": round(float(q["change"][1]), 4),
            "change_quartiles": [round(float(v), 4) for v in q["change"]],
            "change_over_parent": round(float(ratio), 4),
            "change_better_pairs": f"{int(wins.sum())}/{len(pairs)}",
            "worse_by": round(float(worse), 4),
            "bound": metric["bound"],
            "within_bound": bool(worse <= metric["bound"]),
            "parent_spread": round(float(spread), 4),
            "resolved": bool(apart or spread <= metric["bound"]),
        }
    out["failed_tasks"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    out["digest_equal_pairs"] = f"{sum(p['digest_equal'] for p in pairs)}/{len(pairs)}"
    return out


def claim_holds(summary: dict, metric: dict) -> bool:
    """At least 9 of 10 pairs won, and the medians apart by more than the
    parent's interquartile spread, in the better direction."""
    s = summary[metric["name"]]
    won, total = map(int, s["change_better_pairs"].split("/"))
    gap = s["parent_median"] - s["change_median"]
    if metric["better"] == "higher":
        gap = -gap
    spread = s["parent_quartiles"][2] - s["parent_quartiles"][0]
    return won >= 0.9 * total and gap > spread


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--seeds", required=True, help="first-last, one pair per seed")
    ap.add_argument("--claim", help="WORKLOAD:METRIC that must improve")
    ap.add_argument("--note", default="")
    ap.add_argument("--workdir", help="where the exports go (default: a temp dir)")
    ap.add_argument("--out", help="default BENCH_<n>.json at the root")
    args = ap.parse_args()

    work = args.workdir or tempfile.mkdtemp(prefix="bench_pairs_")
    trees = {side: os.path.join(work, side) for side in SIDES}
    change = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    for side, rev in zip(SIDES, (args.parent, change)):
        export(rev, trees[side])
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    seeds = seed_range(args.seeds)

    pairs = []
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for name in names:
            result = {}
            for side in order:
                result[side] = run(trees[side], name, seed, seconds, 0)
                print(f"{name} seed {seed} {side}: correct {result[side]['correct']}, "
                      f"failed {result[side]['failed']}", file=sys.stderr, flush=True)
            pairs.append({
                "workload": name, "seed": seed, "first": order[0],
                "digest_equal": result["parent"]["digest"] == result["change"]["digest"],
                **{side: {**{k: round(m["value"], 4)
                             for k, m in result[side]["metrics"].items()},
                          "failed": result[side]["failed"],
                          "attempted": result[side]["attempted"],
                          "correct": result[side]["correct"]}
                   for side in SIDES}})

    label = f", seconds {seconds:g}, seeds {args.seeds}"
    summary = {name + label: summarize([p for p in pairs if p["workload"] == name], spec)
               for name in names}
    sound = all(m["within_bound"] for s in summary.values() for k, m in s.items()
                if isinstance(m, dict) and "within_bound" in m)
    sound &= all(s["failed_tasks"]["change"] <= s["failed_tasks"]["parent"]
                 for s in summary.values())
    sound &= all(p[side]["correct"] for p in pairs for side in SIDES)
    unresolved = [f"{name} {k}" for name in names
                  for k, m in summary[name + label].items()
                  if isinstance(m, dict) and "resolved" in m and not m["resolved"]]

    if args.claim:
        workload, metric = args.claim.split(":")
        spec_metric = next(m for m in spec["end_to_end"] if m["name"] == metric)
        claim = (f"{workload} {metric} improves: the change wins at least 9 of 10 "
                 "alternating pairs and the difference of the medians exceeds the "
                 "parent's interquartile spread")
        met = sound and claim_holds(summary[workload + label], spec_metric)
    else:
        claim = ("none: no end-to-end metric gets worse beyond its bound on any "
                 "workload, no more tasks fail, and every run ends correct")
        met = sound
    record = {
        "workload": "all four",
        "claim": claim,
        "claim_met": bool(met),
        "unresolved": unresolved,
        "command": ("python3 perfbench/run.py --workload WORKLOAD --seed N --seconds "
                    f"{seconds:g} --trace 0"),
        "order": "the parent runs first for odd seeds, the change first for even "
                 "seeds; for each seed the workloads run in turn, each as one "
                 "parent/change pair",
        "quartiles": "numpy.percentile 25/50/75 with linear interpolation over the "
                     "runs of each side",
        "machine": machine(),
        "note": (f"Every run made is listed: {2 * len(pairs)} runs, {args.parent} "
                 f"against {change}. " + args.note).strip(),
        "summary": summary,
    }
    if args.claim:
        record["traced"] = {
            "command": (f"python3 perfbench/run.py --workload {workload} --seed "
                        f"{TRACE_SEED} --seconds {seconds:g} --trace 1"),
            **{side: {k: v for k, v in run(trees[side], workload, TRACE_SEED,
                                           seconds, 1).items() if k != "digest"}
               for side in SIDES}}
    record["pairs"] = pairs
    out = args.out or os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}: claim_met {record['claim_met']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
