"""Malformed arguments to public calls raise the typed ``InvalidInput``, a
``CharformsError`` that is also a ``ValueError``, never a bare ValueError."""

import numpy as np
import pytest

from charforms import (
    BarChain,
    CharformsError,
    GroupSpec,
    InvalidInput,
    InvariantPolynomial,
    Poly,
    Presentation,
    Representation,
    Word,
    combination,
    power_trace,
)
from charforms.cohomology import bar_boundary
from charforms.numeric import matrix_exp, solve_lsq

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
