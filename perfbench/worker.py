"""One workload process: set-up, a closed loop of CLI tasks, checks.

Started by run.py, once per set-up sample and once for the measured run, so
every workload runs in a fresh process.  Prints one JSON object as its last
line of standard output.
"""

import time

T0 = time.perf_counter()  # set-up starts before numpy and charforms load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import charforms  # noqa: E402
from charforms import cli  # noqa: E402

import ladder  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402


class Task:
    """One point of the pool and the CLI arguments that run it."""

    def __init__(self, number, rung, workload, workdir):
        self.number = number
        self.rung = rung
        self.input = os.path.join(workdir, f"in_{number:03d}.json")
        self.output = os.path.join(workdir, f"out_{number:03d}.json")
        self.csv = self.output[:-5] + ".csv"
        self.argv = [rung.command, "--input", self.input,
                     "--output", self.output, *workload.args]
        self.digest = None  # digest of the first report; repeats must match


def run_task(task):
    """Run one task; return (failure class or None, seconds, result), where
    result is (report, CSV text or None) for a task that exited 0."""
    for path in (task.output, task.csv):
        if os.path.exists(path):
            os.remove(path)
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(task.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any uncaught error is a failed task
        return f"uncaught:{type(exc).__name__}", time.perf_counter() - t0, None
    seconds = time.perf_counter() - t0
    if code == 2:
        try:
            error = json.loads(captured.getvalue()).get("error", "unknown")
        except ValueError:
            error = "usage"
        return f"exit.2:{error}", seconds, None
    with open(task.output) as fh:
        report = json.load(fh)
    if code != 0:
        return f"exit.{code}:{report.get('error', 'verdict')}", seconds, None
    csv_text = None
    if os.path.exists(task.csv):
        with open(task.csv) as fh:
            csv_text = fh.read()
    return None, seconds, (report, csv_text)


def report_digest(report, csv_text) -> str:
    body = {k: v for k, v in report.items() if k != "timestamp"}
    h = hashlib.sha256(json.dumps(body, sort_keys=True).encode())
    if csv_text is not None:
        h.update(csv_text.encode())
    return h.hexdigest()


class Checker:
    """Checks every task's outcome.

    An exit-0 report must pass the workload's checks.  Every repeat of a
    point must give the outcome of its first run (the report digest, or the
    failure class).  The first passing report also proves the checks live:
    a deliberately corrupted copy of it has to fail them.
    """

    def __init__(self):
        self.selftest = None

    def __call__(self, task, failure, result):
        outcome = failure
        if failure is None:
            report, csv_text = result
            rows = None if csv_text is None else len(csv_text.splitlines())
            failed = workloads.check(task.rung, report, rows)
            if failed:
                failure = outcome = f"check:{failed}"
            else:
                outcome = report_digest(report, csv_text)
                if self.selftest is None:
                    self._selftest(task, report, rows)
        if task.digest is None:
            task.digest = outcome
        elif outcome != task.digest:
            failure = "check:determinism"
        return failure

    def _selftest(self, task, report, rows):
        caught = workloads.check(task.rung, *workloads.corrupt(task.rung, report, rows))
        if caught is None:
            sys.exit("checker self-test: a corrupted report passed the checks")
        self.selftest = f"check:{caught}"


def run_cycle(tasks, checker, record):
    for task in tasks:
        failure, seconds, result = run_task(task)
        record(task, checker(task, failure, result), seconds)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workdir = os.path.join("perfbench", ".work", args.workload)
    try:
        measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    # -- set-up (imports above), inputs, one untimed warm-up task ----------
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(workdir, exist_ok=True)
    rngs = {rung: np.random.default_rng([args.seed, r])
            for r, (rung, _) in enumerate(workload.mix)}
    tasks = []
    for number, (rung, _) in enumerate(workloads.schedule(workload)):
        task = Task(number, rung, workload, workdir)
        ladder.write_payload(task.input, ladder.payload(rung, rngs[rung]))
        tasks.append(task)
    # The warm-up point is the same for every seed: the smallest rung's
    # point of seed 0.  With a pool point, set-up time would vary with the
    # cost of the point each seed happens to draw.
    r, warm_rung = min(enumerate(rung for rung, _ in workload.mix),
                       key=lambda e: (e[1].dim_g, e[1].p))
    warm = Task(len(tasks), warm_rung, workload, workdir)
    ladder.write_payload(warm.input,
                         ladder.payload(warm_rung, np.random.default_rng([0, r])))
    warm_outcome = run_task(warm)
    setup_s = time.perf_counter() - T0

    machine = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "charforms": charforms.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "machine": machine}))
        return
    checker = Checker()

    outcomes = Counter()
    failures = Counter()
    passing = []
    by_rung = {rung.label: [] for rung, _ in workload.mix}

    def record(task, failure, seconds):
        if failure is None:
            passing.append(seconds)
            by_rung[task.rung.label].append(seconds)
            outcomes["exit.0"] += 1
        else:
            failures[failure] += 1
            kind = failure.split(":", 1)[0]
            outcomes[kind if kind != "check" else "exit.0"] += 1

    out = {"workload": workload.name, "seed": args.seed, "setup_s": setup_s,
           "machine": machine, "pool": len(tasks),
           "warm_up": f"{warm_rung.label} seed 0: {warm_outcome[0] or 'exit.0'}, "
                      f"{warm_outcome[1]:.3f} s"}

    if args.trace:
        # one untraced cycle warms every rung; then each task of one cycle
        # runs untraced and right after traced, so that both times see the
        # same machine speed.  Exactly one traced cycle: the counts repeat
        # for a given seed.
        run_cycle(tasks, checker, lambda *a: None)
        tracer = layertrace.Tracer()
        ratios = []
        wall = 0.0
        for task in tasks:
            failure, untraced, result = run_task(task)
            checker(task, failure, result)
            tracer.task = task.number
            tracer.install()
            failure, traced, result = run_task(task)
            tracer.uninstall()
            record(task, checker(task, failure, result), traced)
            ratios.append(traced / untraced)
            wall += traced
        overhead = statistics.median(ratios) - 1.0
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in
                         layertrace.layer_metrics(tracer, outcomes, overhead).items()}
        out["spans"] = len(tracer.span_start)
        os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
        tracer.save(os.path.join("perfbench", "out",
                                 f"spans-{workload.name}-seed{args.seed}.npz"))
    else:
        t0 = time.perf_counter()
        cycles = 0
        while True:
            run_cycle(tasks, checker, record)
            cycles += 1
            elapsed = time.perf_counter() - t0
            # stop at the whole cycle that ends closest to the requested time
            if elapsed + elapsed / cycles / 2 >= args.seconds:
                break
        wall = time.perf_counter() - t0
        out["cycles"] = cycles

    attempted = len(passing) + sum(failures.values())
    tail = float(np.percentile(passing, workload.tail_pct)) if passing else None
    out.update({
        "attempted": attempted,
        "passed": len(passing),
        "failed": sum(failures.values()),
        "failures": dict(sorted(failures.items())),
        "checks_failed": sum(v for k, v in failures.items()
                             if k.startswith("check:")),
        "checker_selftest": checker.selftest,
        "wall_s": wall,
        "tasks_per_s": len(passing) / wall,
        "task_ms_p50": 1e3 * statistics.median(passing) if passing else None,
        "tail_pct": workload.tail_pct,
        "task_ms_tail": 1e3 * tail if passing else None,
        "tail_beyond": sum(1 for s in passing if s > tail),
        "rung_ms_p50": {label: 1e3 * statistics.median(v) if v else None
                        for label, v in by_rung.items()},
        "rung_passed": {label: len(v) for label, v in by_rung.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256("".join(t.digest for t in tasks).encode()).hexdigest(),
    })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
