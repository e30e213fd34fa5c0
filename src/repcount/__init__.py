"""Finiteness and exact counts for n-dimensional irreducible representations
of finitely presented associative algebras over Q.

Typical use:

    from repcount import parse_presentation, DecisionInput, decide_finiteness
    p = parse_presentation("generators: X\\nrelation: X^2 - X\\n")
    verdict = decide_finiteness(DecisionInput(p, 1))

`count_classes` / `count_from_run` turn a finite verdict into the exact
number of equivalence classes over the algebraic closure.
"""

from .count import (
    CountReport,
    FiniteDimAlgebra,
    InfiniteRepresentations,
    build_quotient_algebra,
    count_classes,
    count_from_run,
    trace_form,
)
from .decide import (
    DecisionInput,
    MinimalPolynomial,
    Outcome,
    PipelineRun,
    RunOptions,
    Verdict,
    collapsed_certificate_values,
    decide_finiteness,
    minimal_polynomial,
    run_pipeline,
    saturated_locus,
)
from .genmat import (
    CyclicWord,
    GenericMatrixSpace,
    TraceGenerator,
    build_generic_space,
    certificates,
    length_bound,
    relations_ideal,
    trace_generators,
)
from .groebner import (
    Budget,
    GroebnerBasis,
    Ideal,
    ResourceLimitExceeded,
    ResourceLimits,
    buchberger,
    intersect,
    saturate_principal,
)
from .matrices import Matrix
from .poly import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    VariableId,
    auxiliary,
    leading_term,
    matrix_entry,
)
from .presentation import (
    FreeElement,
    Presentation,
    PresentationError,
    ZeroRelationWarning,
    format_presentation,
    parse_presentation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
