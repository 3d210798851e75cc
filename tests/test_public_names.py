"""The public names of ``charforms`` are the API, pinned here so that an API
change is a deliberate edit of ``API``; the census of settable values may
fall, and grows only by an edit of ``CENSUS``.

The names the layer tracer in perfbench/layertrace.py looks up must exist:
it wraps ``getattr(module, name)`` for every name in a module's ``__all__``
and ``cls.__dict__[attr]`` for every entry of its METHODS tuple, so a name
removed from a module but left in a list would break a traced run.

METHODS is read from the tracer's source with the standard-library ``ast``
module, without importing perfbench."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import charforms

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "charforms").glob("*.py")
                 if p.name != "__init__.py")

API = [
    "BarChain", "CharformsError", "Chart", "CocycleSpace", "ConvergenceFailure",
    "DegreeMismatch", "EtaContext", "FamilySpec",
    "GroupRingElement", "GroupSpec", "IndexOutOfRange", "InvalidInput",
    "InvariantPolynomial", "LeftChart", "LieAlgebraBasis", "NoConvergence",
    "NotEndomorphism", "NotSurfacePresentation", "NotTangent", "Poly",
    "Presentation", "RankInstability", "Representation", "SingularMatrix",
    "Tolerances", "UnknownGenerator", "Word", "WordSyntaxError",
    "base_change", "chart_closedness", "check_invariance", "coboundary",
    "cocycle_space", "combination", "compare_base_change",
    "conjugation_invariance", "contraction_suite",
    "endomorphism_pullback", "eta", "eta_coefficients", "evaluate_word",
    "family_pullback",
    "fd_exterior_derivative", "find_representation", "fox_derivative",
    "fox_jacobian", "free_group_demo", "fundamental_two_cycle", "gram_matrix",
    "is_irreducible", "killing_form", "lie_algebra_basis", "make_context",
    "parse_word", "power_trace", "render_word", "symmetric_tensor",
    "trace_form", "verify_cycle",
]


def test_public_api_is_pinned():
    """The package's public names, submodules aside, are exactly ``API``."""
    names = sorted(name for name, value in vars(charforms).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == API


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


# The most settable values the library may hold: defaulted positional and
# keyword-only parameters, plus annotated class fields with a default other
# than field(...), over every module but __init__.py.  22 = charts 1, cli 1,
# cohomology 1, errors 1, families 3, forms 2, invariants 1, matgroup 4,
# numeric 4, words 4.
CENSUS = 22


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(
                isinstance(st, ast.AnnAssign) and st.value is not None
                and not (isinstance(st.value, ast.Call)
                         and getattr(st.value.func, "id", None) == "field")
                for st in node.body)
    return count


def test_settable_values_count_defaults_and_fields():
    source = ("def f(a, b=1, *, c=2, d):\n    g = lambda x=0: x\n"
              "class K:\n    x: int = 1\n    y: int = field(default=2)\n    z: int\n")
    assert settable_values(source) == 4


def test_census_of_settable_values_does_not_grow():
    census = {name: settable_values((ROOT / "src" / "charforms" / f"{name}.py").read_text())
              for name in MODULES}
    assert sum(census.values()) <= CENSUS, census
