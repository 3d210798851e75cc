"""Per-layer tracing of charforms from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper at every binding site: the defining module, every charforms module
that imported it by name, and the package namespace.  Functions looked up as
globals at call time (``polarize``'s closure calls ``invariants.evaluate``;
``find_representation`` imports ``fox_derivative`` inside its body) therefore
reach the wrapper too.  A few methods are wrapped on their classes.

``uninstall`` restores the originals, so a run can alternate untraced and
traced calls of the same task.

Each call records a span (name, start, end, parent span, task) in compact
in-memory arrays; ``save`` writes them out once the run is over.  Self time
is a span's duration minus that of its wrapped children, so time spent in
numpy or scipy counts toward the innermost wrapped charforms call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array

LAYERS = ("words", "numeric", "matgroup", "cohomology", "invariants", "forms",
          "charts", "families", "cli")

# (module, class, attribute, span name)
METHODS = (
    ("matgroup", "Representation", "__init__", "matgroup.Representation"),
    ("forms", "EtaContext", "__init__", "forms.EtaContext"),
    ("families", "FamilySpec", "rep_at", "families.FamilySpec.rep_at"),
    ("families", "Poly", "__call__", "families.Poly.call"),
)

RANK_FUNCTIONS = ("rank_and_gap", "svd_rank", "nullspace_basis", "orth_basis")


class Tracer:
    """Span recorder for one traced cycle; ``task`` tags the spans of the
    task that is running."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_s: list = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_task = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.task = -1
        self._current = -1
        self._child = [0.0]    # child-time accumulator per open span
        self.rank_gap_min = math.inf
        self.fd_evaluations = 0
        self._installed = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _wrap(self, name: str, fn, on_return=None):
        nid = self._id(name)
        clock = time.perf_counter
        child = self._child
        calls, self_s = self.calls, self.self_s
        s_name, s_parent, s_task = self.span_name, self.span_parent, self.span_task
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(s_start)
            parent = tracer._current
            s_name.append(nid)
            s_parent.append(parent)
            s_task.append(tracer.task)
            s_end.append(0.0)
            tracer._current = idx
            child.append(0.0)
            t0 = clock()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                s_end[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - child.pop()
                child[-1] += dur
                calls[nid] += 1
                tracer._current = parent
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _on_cocycle_space(self, space):
        if math.isfinite(space.rank_gap):
            self.rank_gap_min = min(self.rank_gap_min, space.rank_gap)

    def _on_fd(self, result):
        self.fd_evaluations += result["evaluations"]

    def _patches(self) -> list:
        """(target, attribute, original, wrapper) for every binding site."""
        package = importlib.import_module("charforms")
        modules = {name: importlib.import_module(f"charforms.{name}")
                   for name in LAYERS}
        hooks = {"cohomology.cocycle_space": self._on_cocycle_space,
                 "charts.fd_exterior_derivative": self._on_fd}
        wrapped = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self._wrap(name, fn, hooks.get(name))
        patches = []
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    patches.append((mod, attr, value, wrapped[value]))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[attr]
            patches.append((cls, attr, fn, self._wrap(name, fn)))
        return patches

    def install(self):
        """Wrap the layers' public functions at every binding site."""
        if self._installed is None:
            self._installed = self._patches()
        for target, attr, _, wrapper in self._installed:
            setattr(target, attr, wrapper)

    def uninstall(self):
        """Put the original functions back; ``install`` wraps them again."""
        for target, attr, original, _ in self._installed:
            setattr(target, attr, original)

    # -- reading the trace ------------------------------------------------

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def layer_self_time(self, layer: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n.split(".", 1)[0] == layer)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` with a span of ``ancestor`` above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        total = 0
        for i, n in enumerate(names):
            if n != nid:
                continue
            p = parents[i]
            while p >= 0 and names[p] != aid:
                p = parents[p]
            total += p >= 0
        return total

    def save(self, path) -> None:
        """Write the spans as a compressed numpy archive."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            task=np.frombuffer(self.span_task, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))


# Spans whose call counts and self times are reported one by one.
CALLS = ("words.fox_derivative", "numeric.matrix_exp", "numeric.matrix_inverse",
         "numeric.solve_lsq", "matgroup.Representation",
         "matgroup.lie_algebra_basis", "matgroup.find_representation",
         "matgroup.evaluate_groupring", "matgroup.adjoint_operator",
         "cohomology.fox_jacobian", "cohomology.cocycle_space",
         "cohomology.extend_cocycle", "cohomology.pair", "invariants.evaluate",
         "invariants.polarize", "forms.eta", "forms.make_context",
         "forms.EtaContext", "charts.retract", "charts.transported_direction",
         "families.family_tangent", "families.FamilySpec.rep_at",
         "families.Poly.call", "cli.main")
SELF_TIMES = ("words.fox_derivative", "matgroup.Representation",
              "matgroup.find_representation", "matgroup.evaluate_groupring",
              "matgroup.adjoint_operator", "cohomology.fox_jacobian",
              "cohomology.cocycle_space", "cohomology.pair", "invariants.evaluate",
              "forms.eta", "forms.gram_matrix", "charts.retract",
              "families.family_tangent")


def layer_metrics(tracer: Tracer, outcomes: dict, overhead: float) -> dict:
    """The per-layer metrics of one traced cycle, as name -> (value, unit)."""
    t = tracer
    out = {f"{name}.calls": (t.count(name), "count") for name in CALLS}
    out["numeric.rank.calls"] = (
        sum(t.count(f"numeric.{f}") for f in RANK_FUNCTIONS), "count")
    out["charts.fd_evaluations"] = (t.fd_evaluations, "count")
    for kind in ("exit.0", "exit.1", "exit.2", "uncaught"):
        out[f"cli.{kind}"] = (outcomes.get(kind, 0), "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (t.layer_self_time(layer), "s")
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (t.self_time(name), "s")
    trials = t.count_under("matgroup.Representation", "matgroup.find_representation")
    solves = t.count_under("numeric.solve_lsq", "matgroup.find_representation")
    out["matgroup.gn_accept_ratio"] = (solves / trials if trials else 0.0, "ratio")
    gap = t.rank_gap_min if math.isfinite(t.rank_gap_min) else 0.0
    out["cohomology.rank_gap_min"] = (gap, "ratio")
    out["trace.overhead_frac"] = (overhead, "fraction")
    return out
