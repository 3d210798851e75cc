"""The names the layer tracer in perfbench/layertrace.py looks up must exist:
it wraps ``getattr(module, name)`` for every name in a module's ``__all__``
and ``cls.__dict__[attr]`` for every entry of its METHODS tuple, so a name
removed from a module but left in a list would break a traced run.

METHODS is read from the tracer's source with the standard-library ``ast``
module, without importing perfbench."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "charforms").glob("*.py")
                 if p.name != "__init__.py")


def traced_methods(source: str) -> list:
    """The (module, class, attribute) triples of the METHODS assignment."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "METHODS"
                        for t in node.targets)):
            return [tuple(entry[:3]) for entry in ast.literal_eval(node.value)]
    raise AssertionError("no METHODS assignment")


def test_traced_methods_reads_the_tuple():
    source = 'X = 1\nMETHODS = (("forms", "EtaContext", "__init__", "span"),)\n'
    assert traced_methods(source) == [("forms", "EtaContext", "__init__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"charforms.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize(
    "layer,cls,attr",
    traced_methods((ROOT / "perfbench" / "layertrace.py").read_text()))
def test_traced_method_is_a_class_attribute(layer, cls, attr):
    owner = getattr(importlib.import_module(f"charforms.{layer}"), cls)
    assert attr in owner.__dict__
