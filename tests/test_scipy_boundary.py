"""No module of the package imports scipy: numpy is its only runtime
dependency, and scipy serves the tests as an oracle.  Checked on the source
with the standard-library ``ast`` module, beside the unused-import check, and
on a fresh interpreter that imports the package and its command line."""

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_numeric_imports_scipy(path):
    """No module imports scipy, numeric.py included; the name is from when
    numeric.py wrapped scipy's kernels."""
    assert scipy_imports(path.read_text()) == []


def test_import_loads_no_scipy():
    code = ("import sys, charforms, charforms.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout.strip() == "[]"
