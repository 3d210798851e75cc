"""scipy is imported by ``numeric.py`` alone, so that the dense kernels it
wraps are the only runtime use of scipy; checked with the standard-library
``ast`` module, beside the unused-import check."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charforms"


def scipy_imports(source: str) -> list:
    """Line numbers of the statements that import scipy or a submodule."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            lines.append(node.lineno)
    return sorted(lines)


def test_check_finds_scipy_imports():
    source = ("import os, scipy.linalg\nfrom scipy import linalg\n"
              "from .scipy import x\nimport numpy as scipy\n"
              "def f():\n    import scipy\n")
    assert scipy_imports(source) == [1, 2, 6]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "numeric.py"),
                         ids=lambda p: p.name)
def test_only_numeric_imports_scipy(path):
    assert scipy_imports(path.read_text()) == []
