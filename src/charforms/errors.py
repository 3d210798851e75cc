"""Exception hierarchy shared by all modules."""

from contextlib import contextmanager


class CharformsError(Exception):
    """Base class for all library-specific errors."""


class UnknownGenerator(CharformsError, ValueError):
    """A word refers to a generator that the presentation does not have."""


class WordSyntaxError(CharformsError, ValueError):
    """Malformed token in a word string."""


class IndexOutOfRange(CharformsError, IndexError):
    """Generator index outside the presentation's range."""


class SingularMatrix(CharformsError, ValueError):
    """Inversion of a (numerically) singular matrix, ``index`` of a stack."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class ConvergenceFailure(CharformsError, RuntimeError):
    """An iterative linear-algebra routine failed to converge."""


class NoConvergence(CharformsError, RuntimeError):
    """Gauss-Newton did not reach the residual tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RankInstability(CharformsError, RuntimeError):
    """A singular value sits too close to the rank cutoff; dimensions untrustworthy."""


class NotSurfacePresentation(CharformsError, ValueError):
    """Presentation is not the standard genus-g surface presentation."""


class DegreeMismatch(CharformsError, ValueError):
    """Degrees of polynomial, cycle and argument list do not agree."""


class LeftChart(CharformsError, RuntimeError):
    """Retraction correction exceeded the chart step; chart too large."""


class NotEndomorphism(CharformsError, ValueError):
    """Candidate generator images do not define a group endomorphism at rho."""


class NotTangent(CharformsError, ValueError):
    """Family derivative fails the cocycle residual check."""


class InvalidInput(CharformsError, ValueError):
    """Malformed JSON payload or inconsistent job configuration."""


@contextmanager
def malformed(what: str):
    """Parse input in this block: a KeyError, TypeError, ValueError or IndexError
    becomes InvalidInput naming ``what``; a library error keeps its name."""
    try:
        yield
    except CharformsError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InvalidInput(f"malformed {what}: {exc!r}") from exc


def positive_int(value, what: str) -> int:
    """An int (not a bool) or an integral float, at least 1, as an int; anything
    else raises InvalidInput naming ``what``."""
    return _int_at_least(1, "positive", value, what)


def natural_int(value, what: str) -> int:
    """As positive_int, but 0 is accepted too."""
    return _int_at_least(0, "non-negative", value, what)


def _int_at_least(least: int, kind: str, value, what: str) -> int:
    if type(value) not in (int, float) or not value >= least or value % 1:
        raise InvalidInput(f"{what} must be a {kind} integer, got {value!r}")
    return int(value)
