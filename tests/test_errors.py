"""Malformed arguments to public calls raise the typed ``InvalidInput``, a
``CharformsError`` that is also a ``ValueError``, never a bare ValueError;
the library's other input checks raise their own typed errors."""

import numpy as np
import pytest

from charforms import (
    BarChain,
    CharformsError,
    DegreeMismatch,
    GroupSpec,
    IndexOutOfRange,
    InvalidInput,
    InvariantPolynomial,
    NotEndomorphism,
    Poly,
    Presentation,
    Representation,
    Word,
    base_change,
    combination,
    conjugation_invariance,
    endomorphism_pullback,
    fox_derivative,
    gram_matrix,
    make_context,
    power_trace,
    render_word,
    trace_form,
)
from charforms.cohomology import bar_boundary
from charforms.numeric import matrix_exp, solve_lsq

from conftest import SL2, diagonal_family, f2_point, torus_point

NAN = np.full((2, 2), np.nan)

CALLS = {
    "nan image": lambda: Representation(Presentation.surface(1), GroupSpec("SL", 2),
                                        [NAN, np.eye(2)]),
    "power_trace(0)": lambda: power_trace(0),
    "empty combination": lambda: combination([]),
    "unknown kind": lambda: InvariantPolynomial("cube", 3),
    "repeated generator": lambda: Presentation(("a", "a")),
    "invalid generator name": lambda: Presentation(("1a",)),
    "genus 0": lambda: Presentation.surface(0),
    "letter sign 2": lambda: Word(((0, 2),)),
    "unreduced word": lambda: Word(((0, 1), (0, -1))),
    "tuple of the wrong degree": lambda: BarChain.of(2, {(Word.generator(0),): 1}),
    "boundary in degree 0": lambda: bar_boundary(BarChain.of(0, {(): 1})),
    "compose of the wrong length": lambda: Poly.var(2, 0).compose([Poly.var(1, 0)]),
    "matrix_exp of nan": lambda: matrix_exp(NAN),
    "solve_lsq of nan": lambda: solve_lsq(NAN, np.ones(2)),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_malformed_arguments_raise_typed_errors(call):
    with pytest.raises(CharformsError) as info:
        call()
    assert isinstance(info.value, InvalidInput)


def _degree_3_context():
    return make_context(f2_point(), power_trace(3), BarChain.of(3, {}))


# (the error, what its message says, the call) for each input check
CHECKS = {
    "make_context in degree 3 with no cycle": (
        DegreeMismatch, "automatic cycle only available in degree 2",
        lambda: make_context(torus_point(), power_trace(3))),
    "make_context with a cycle of the wrong degree": (
        DegreeMismatch, "cycle degree 3 != polynomial degree 2",
        lambda: make_context(torus_point(), trace_form(), BarChain.of(3, {}))),
    "gram_matrix in degree 3": (
        DegreeMismatch, "requires a degree-2 context",
        lambda: gram_matrix(_degree_3_context(), np.zeros((6, 1)))),
    "conjugation_invariance in degree 3": (
        DegreeMismatch, "requires degree 2",
        lambda: conjugation_invariance(_degree_3_context(), np.eye(2), 1,
                                       np.random.default_rng(0))),
    "endomorphism_pullback with one image for two generators": (
        NotEndomorphism, "one image word per generator",
        lambda: endomorphism_pullback(make_context(torus_point(), trace_form()),
                                      [Word.generator(0)], np.random.default_rng(0))),
    "GroupSpec('SL', 1)": (
        InvalidInput, "matrix size must be >= 2", lambda: GroupSpec("SL", 1)),
    "Representation with one image for two generators": (
        InvalidInput, "one image per generator",
        lambda: Representation(Presentation.surface(1), SL2, [np.eye(2)])),
    "Representation with a 3 x 3 image for SL(2)": (
        InvalidInput, "image shape",
        lambda: Representation(Presentation.surface(1), SL2, [np.eye(3)] * 2)),
    "render_word with an index out of range": (
        IndexOutOfRange, "generator index 2 out of range",
        lambda: render_word(Word.generator(2), ["a", "b"])),
    "fox_derivative by generator -1": (
        IndexOutOfRange, "negative generator index -1",
        lambda: fox_derivative(Word.generator(0), -1)),
    "base_change with one substitution for three parameters": (
        InvalidInput, "one substitution polynomial per parameter",
        lambda: base_change(diagonal_family(), [Poly.var(1, 0)], ("u",), (0.2,))),
}


@pytest.mark.parametrize("error,match,call", CHECKS.values(), ids=CHECKS.keys())
def test_input_checks_raise_their_typed_errors(error, match, call):
    with pytest.raises(error, match=match):
        call()
