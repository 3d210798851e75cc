"""Every function and method of the package is reached by what the library
is for, or ALLOWLIST says why it stays.

The traffic is three sets of runs, in-process:

- the nine CLI commands through ``cli.main``, on the conftest torus,
  genus-2 and F_2 points, a GL(2) and an SL(3) point, the genus-2 point
  with a ``phi`` combination and the diagonal family;
- the ten criteria of ``test_acceptance.py``, called with their fixtures;
- each demo's ``main()``.

While they run, a call-only ``sys.settrace`` function records the code
object of every frame entered.  It returns None, so no line events fire; a
``sys.setprofile`` hook would also see every numpy C call.  The points and
the family are built inside the run and the library's caches start empty,
so the record does not depend on which tests ran before.

The functions are the ``def`` code objects compiled from the package's
files, nested ones included.  Module and class bodies are left out, and so
are lambdas and comprehensions, which belong to the function that holds
them.  Names are read from ``co_qualname``, new in Python 3.11.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import sys
from pathlib import Path

import pytest

import charforms
from charforms import cli, matgroup

import test_acceptance
from conftest import (
    diagonal_family,
    f2_point,
    family_payload,
    genus2_point,
    point_payload,
    random_point,
    torus_point,
)

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="reads co_qualname, new in Python 3.11")

PACKAGE = os.path.dirname(os.path.abspath(charforms.__file__))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# 'module.qualname' of each function no traffic reaches -> why it stays
ALLOWLIST = {
    "families.FamilySpec.rep_at":
        "wrapped by METHODS in perfbench/layertrace.py; goes with its clean-up",
    "families.Poly.__call__":
        "wrapped by METHODS in perfbench/layertrace.py; goes with its clean-up",
    "matgroup.find_representation":
        "the public solver of the relator equations, for new points",
    "matgroup.find_representation.<locals>.trial":
        "the Newton trial step of find_representation",
    "words.Word.__repr__": "names a word in Presentation's error message",
    "errors.SingularMatrix.__init__": "runs only on an error path",
    "errors.NoConvergence.__init__": "runs only on an error path",
}

# a degree-2 combination that does not vanish on sl(2)
COMBO = {"kind": "combo", "terms": [
    {"kind": "power_trace", "n": 2, "coeff": [1.0, 0.0]},
    {"kind": "killing", "coeff": [0.5, 0.0]}]}


def defined_functions(package: str) -> set:
    """'module.qualname' of every def compiled from the package's files."""
    names = set()
    for path in Path(package).glob("*.py"):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                names.add(f"{path.stem}.{code.co_qualname}")
    return names


def reached(run, package: str) -> set:
    """'module.qualname' of every package function entered while run() runs."""
    codes = set()

    def record(frame, event, arg):
        codes.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
            if os.path.dirname(os.path.abspath(c.co_filename)) == package}


def cli_traffic(base: Path) -> None:
    points = [torus_point(), genus2_point(), f2_point(),
              random_point(2, 0, kind="GL")[0], random_point(2, 0, n=3)[0]]
    payloads = [point_payload(rho) for rho in points]
    payloads.append({**payloads[1], "phi": COMBO})
    runs = [(command, payload, []) for payload in payloads
            for command in sorted(set(cli._COMMANDS) - {"family", "demo-free-group"})]
    runs += [("family", family_payload(diagonal_family()), ["--grid", "2"]),
             ("demo-free-group", None, [])]
    for i, (command, payload, flags) in enumerate(runs):
        argv = [command, "--seed", "1", "--trials", "2",
                "--output", str(base / f"{i}.json"), *flags]
        if payload is not None:
            (base / f"{i}.in.json").write_text(json.dumps(payload))
            argv += ["--input", str(base / f"{i}.in.json")]
        assert cli.main(argv) in (0, 1, 2)


def criteria(base: Path) -> None:
    tests = [f for name, f in sorted(vars(test_acceptance).items())
             if name.startswith("test_")]
    assert len(tests) == 10
    fixtures = {"torus_rep": torus_point, "genus2_rep": genus2_point,
                "f2_rep": f2_point, "family": diagonal_family,
                "tmp_path": lambda: base}
    for test in tests:
        test(**{name: fixtures[name]() for name in inspect.signature(test).parameters})


def demos() -> None:
    for path in DEMOS:
        spec = importlib.util.spec_from_file_location(f"demos_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """The package functions the traffic reaches, from empty caches."""
    base = tmp_path_factory.mktemp("reachability")

    def traffic():
        cli_traffic(base)
        criteria(base)
        demos()

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(matgroup, "_BASES", {})
        mp.setattr(sys, "__stdout__", io.StringIO())  # the criteria's lines
        for path in Path(PACKAGE).glob("*.py"):
            module = importlib.import_module(f"charforms.{path.stem}")
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        return reached(traffic, PACKAGE)


def test_every_function_is_reached_or_allowed(record):
    unreached = sorted(defined_functions(PACKAGE) - record - set(ALLOWLIST))
    assert not unreached, f"no traffic reaches {unreached}: delete or allow them"


def test_allowlist_is_current(record):
    """An entry that is now reached, or no longer defined, must go."""
    defined = defined_functions(PACKAGE)
    stale = sorted(name for name in ALLOWLIST if name in record or name not in defined)
    assert not stale, f"stale ALLOWLIST entries {stale}"


def test_census_sees_nested_functions_and_skips_bodies(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class K:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return [x for x in ()]\n"
        "        return g\n"
        "    h = lambda self: 0\n")
    assert defined_functions(str(tmp_path)) == {"mod.K.f", "mod.K.f.<locals>.g"}
    spec = importlib.util.spec_from_file_location("mod", tmp_path / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert reached(lambda: module.K().f(), str(tmp_path)) == {"mod.K.f"}
