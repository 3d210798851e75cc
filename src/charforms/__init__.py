"""Twisted group cohomology and characteristic forms on representation
varieties of finitely presented groups."""

from .errors import (
    CharformsError,
    ConvergenceFailure,
    DegreeMismatch,
    IndexOutOfRange,
    InvalidInput,
    LeftChart,
    NoConvergence,
    NotEndomorphism,
    NotSurfacePresentation,
    NotTangent,
    RankInstability,
    SingularMatrix,
    UnknownGenerator,
    WordSyntaxError,
)
from .words import (
    GroupRingElement,
    Presentation,
    Word,
    fox_derivative,
    parse_word,
    render_word,
)
from .numeric import Tolerances
from .matgroup import (
    GroupSpec,
    LieAlgebraBasis,
    Representation,
    coboundary,
    conjugate_representation,
    evaluate_word,
    find_representation,
    is_irreducible,
    lie_algebra_basis,
)
from .cohomology import (
    BarChain,
    CocycleSpace,
    cocycle_space,
    fox_jacobian,
    fundamental_two_cycle,
    verify_cycle,
)
from .invariants import (
    InvariantPolynomial,
    check_invariance,
    combination,
    killing_form,
    power_trace,
    symmetric_tensor,
    trace_form,
)
from .forms import (
    EtaContext,
    conjugation_invariance,
    contraction_suite,
    endomorphism_pullback,
    eta,
    gram_matrix,
    make_context,
)
from .charts import (
    Chart,
    chart_closedness,
    eta_coefficients,
    fd_exterior_derivative,
    free_group_demo,
)
from .families import (
    FamilySpec,
    Poly,
    base_change,
    compare_base_change,
    family_pullback,
)

__version__ = "0.1.0"
