"""Unused-import check on the package sources with the standard-library
``ast`` module, so it runs without a linter installed."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "charforms"


def unused_imports(source: str) -> list:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_check_finds_unused_names():
    source = "import os.path\nimport re as regex\nfrom a import b, c\nb(c)\n"
    assert unused_imports(source) == ["os", "regex"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
