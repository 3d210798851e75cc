"""charforms benchmark: seeded CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of goldman-ladder, cohomology-ladder, chart-closedness,
family-pullback, or ``all`` to run the four in turn.  Each task is one
in-process call to ``charforms.cli.main`` on an input generated from the
seed (see ladder.py).  The load is a closed loop: one client, one process,
no threads, BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics.  Set-up runs in SETUPS fresh
processes and ``setup_s`` is their median; the last of them goes on to
measure whole cycles of the workload's pool for about S seconds.
``--trace 1`` runs one untraced cycle, then one cycle in which every task
runs untraced and then with every charforms layer wrapped, and prints the
per-layer metrics; the spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
tasks that exited 1 or 2, raised, or failed a check; ``correct`` is false
when the program returned a report that failed a check (a wrong answer
reported as success), or when the checks could not be shown to be live.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 7          # set-up samples per end-to-end run
DEADLINE_S = 170.0  # the whole run, every process included

END_TO_END = (("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_ms_p50", "ms"),
              ("task_ms_tail", "ms"), ("peak_rss_mb", "MB"))


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "loadavg_at_start": list(os.getloadavg())}


def spawn(argv: list, deadline: float) -> dict:
    """Run a worker to completion; return the JSON of its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            setups.append(spawn(argv + ["--setup-only"], deadline)["setup_s"])
    result = spawn(argv, deadline)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def summary(r: dict, machine: dict) -> list:
    lines = [f"workload {r['workload']}  seed {r['seed']}  pool {r['pool']} points"]
    if "layers" in r:
        lines.append(f"  traced cycle: {r['attempted']} tasks, {r['spans']} spans; "
                     "trace.overhead_frac is the median over tasks of traced / "
                     "untraced time - 1")
        for key, m in r["layers"].items():
            lines.append(f"  {key:38s} {m['value']:.6g} {m['unit']}")
    else:
        samples = ", ".join(f"{s:.3f}" for s in r["setup_samples"])
        lines += [
            f"  setup_s          {r['setup_s']:.4f} s   (median of {samples})",
            f"  warm-up task     {r['warm_up']}",
            f"  tasks_per_s      {r['tasks_per_s']:.4f} 1/s   "
            f"({r['passed']} passing in {r['wall_s']:.2f} s, {r['cycles']} cycle(s))",
            f"  task_ms_p50      {r['task_ms_p50']:.4f} ms   (n={r['passed']})",
            f"  task_ms_tail     {r['task_ms_tail']:.4f} ms   (p{r['tail_pct']:g}, "
            f"n={r['passed']}, {r['tail_beyond']} beyond)",
            f"  failed_fraction  {r['failed'] / r['attempted']:.4f}   "
            f"({r['failed']} of {r['attempted']})",
            f"  peak_rss_mb      {r['peak_rss_mb']:.2f} MB",
            "  rung p50 ms      " + ", ".join(
                f"{k} {v:.1f} (n={r['rung_passed'][k]})" if v is not None
                else f"{k} - (n=0)" for k, v in r["rung_ms_p50"].items()),
        ]
    failures = ", ".join(f"{k} x{v}" for k, v in r["failures"].items()) or "none"
    lines += [
        f"  failure classes  {failures}",
        f"  checker self-test: corrupted report -> {r['checker_selftest']}",
        f"  report digest    {r['digest']}",
        "  machine          " + ", ".join(
            f"{k} {v}" for k, v in {**r["machine"], **machine}.items()),
    ]
    return lines


def result_line(r: dict) -> dict:
    if "layers" in r:
        metrics = r["layers"]
    else:
        metrics = {key: {"value": r[key], "unit": unit} for key, unit in END_TO_END}
    return {"correct": r["checks_failed"] == 0 and r["checker_selftest"] is not None,
            "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "charforms", "cli.py")):
        print(f"charforms sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    machine = machine_record()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if r["passed"] == 0:
            print(f"{name}: no task passed", file=sys.stderr)
            return 1
        print("\n".join(summary(r, machine)), flush=True)
        results[name] = result_line(r)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
