"""One source for the tolerances at a point, checked on the package sources
with the standard-library ``ast`` module: no function that takes a point (a
Representation, an EtaContext or a Chart) or a FamilySpec also takes a
``tol``, and no class that holds a Representation also has a ``tol`` field,
so every decision made at a point or on a family reads its own ``tol``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charforms"
POINTS = {"Representation", "EtaContext", "Chart", "FamilySpec"}


def _annotation(node) -> str:
    return "" if node is None else ast.unparse(node).strip("'\"")


def second_sources(source: str) -> list:
    """Functions with a point parameter and a ``tol`` parameter, and classes
    with a Representation field and a ``tol`` field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if ("tol" in {a.arg for a in params}
                    and POINTS & {_annotation(a.annotation) for a in params}):
                found.append(node.name)
        elif isinstance(node, ast.ClassDef):
            fields = {stmt.target.id: _annotation(stmt.annotation)
                      for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)}
            if "tol" in fields and "Representation" in fields.values():
                found.append(node.name)
    return sorted(found)


def test_check_finds_second_sources():
    source = ("def f(rho: Representation, tol=None): pass\n"
              "def g(ctx: 'EtaContext', *, tol): pass\n"
              "def h(rho: Representation): pass\n"
              "def k(family, tol): pass\n"
              "class C:\n    center: Representation\n    tol: Tolerances = T\n"
              "class D:\n    tol: float\n")
    assert second_sources(source) == ["C", "f", "g"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_point_is_the_only_tolerance_source(path):
    assert second_sources(path.read_text()) == []
