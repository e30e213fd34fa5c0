"""Deciding finiteness of the set of n-dimensional irreducible representations.

The pipeline: build the generic matrix space, the relations ideal, and the
irreducibility certificates; saturate the relations ideal at the certificates
to get the ideal of the closed set swept out by irreducible representations
(the "locus ideal"); then test each trace-ring generator for algebraicity
modulo that ideal.  All generators algebraic means finitely many equivalence
classes; a transcendental one is a witness to infinitely many.

Certificates are built from the n-th-power-free words only, which span the
same module as all words (see `certificate_words`), and collapsed to normal
forms against the relations ideal before the saturation: entries of word
products are reduced as the products are formed, which keeps the
intermediate polynomials small.  The saturation then runs at the certificate
values or at a Groebner basis of what they add to the relations ideal,
whichever set is smaller, and at all of them at once: one elimination that
extends the relations basis (`saturate_principal`), with no saturation per
multiplier and no intersections.  None of this changes the saturated ideal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Sequence

from .genmat import (
    GenericMatrixSpace,
    TraceGenerator,
    build_generic_space,
    certificate_terms,
    certificate_words,
    length_bound,
    relations_ideal,
    trace_generators,
)
from .groebner import (
    Budget,
    EngineCounters,
    GroebnerBasis,
    Ideal,
    ResourceLimitExceeded,
    ResourceLimits,
    buchberger,
    saturate_principal,
)
from .linalg import PolyEchelon
from .poly import MonomialOrder, Polynomial, base_order, signed_sum
from .presentation import Presentation


DEFAULT_LIMITS = ResourceLimits(max_seconds=300.0, max_degree=60, max_basis=20000)


@dataclass(frozen=True)
class RunOptions:
    order: str = "grevlex"  # base order for non-elimination bases
    limits: ResourceLimits = DEFAULT_LIMITS

    def __post_init__(self):
        if self.order not in ("lex", "grevlex"):
            raise ValueError("order must be 'lex' or 'grevlex'")


@dataclass(frozen=True)
class DecisionInput:
    presentation: Presentation
    n: int
    options: RunOptions = RunOptions()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("representation dimension must be at least 1")


class Outcome(str, Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic univariate polynomial, coefficients ascending."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("minimal polynomials are monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def render(self, var: str = "y") -> str:
        return signed_sum((self.coeffs[k], "" if k == 0 else var if k == 1 else "%s^%d" % (var, k))
                          for k in range(self.degree, -1, -1) if self.coeffs[k] != 0)


@dataclass
class PipelineMetrics:
    n: int = 0
    s: int = 0
    variables: int = 0
    relation_generators: int = 0
    relations_gb_size: int = 0
    relations_gb_max_degree: int = 0
    word_length_bound: int | None = None
    certificate_words: int | None = None
    certificate_candidates: int = 0
    certificate_values: int = 0
    multipliers: int = 0
    locus_gb_size: int | None = None
    locus_gb_max_degree: int | None = None
    trace_generator_count: int = 0
    algebra_dimension: int | None = None
    gram_rank: int | None = None
    engine: EngineCounters = field(default_factory=EngineCounters)  # the run budget's
    engine_by_stage: dict = field(default_factory=dict)  # stage -> EngineCounters
    timings: dict = field(default_factory=dict)  # the run budget's: stage -> seconds

    def as_dict(self) -> dict:
        out = asdict(self)
        del out["timings"]
        return out


@dataclass
class Verdict:
    outcome: Outcome
    witness: TraceGenerator | None = None
    minimal_polynomials: dict = field(default_factory=dict)  # rendered word -> MinimalPolynomial
    inconclusive_reason: str | None = None
    inconclusive_stage: str | None = None  # the stage that was running at the overrun
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)


# -- minimal polynomials ----------------------------------------------------


POWER_CAP = 32  # powers of f tried before the elimination
TERM_CAP = 5000  # terms in a power of f past which the elimination runs


def minimal_polynomial(f: Polynomial, basis: GroebnerBasis,
                       limits=None) -> MinimalPolynomial | None:
    """Monic generator of { p in Q[y] : p(f) lies in the ideal }, or None.

    Modulo the unit ideal everything is 0, so the answer is y by convention.
    A linear-algebra phase looks for a dependence among normal forms of
    powers of f (and certifies the minimal degree when it finds one); if the
    powers grow past POWER_CAP or TERM_CAP without a dependence, a
    block-order elimination settles algebraicity outright.
    """
    budget = Budget.of(limits)
    ring = basis.ring
    if basis.is_unit:
        return MinimalPolynomial((Fraction(0), Fraction(1)))
    nf = basis.normal_form(f, budget)
    if nf.is_constant:
        return MinimalPolynomial((-nf.constant_value(), Fraction(1)))

    table = basis.table
    factor, terms = table.pack(nf), table.pack(ring.one)
    echelon = PolyEchelon()
    echelon.insert(terms)
    for k in range(1, POWER_CAP + 1):
        budget.tick()
        terms = table.product([(terms, factor)], budget)
        status, data = echelon.insert(terms)
        if status == "dependent":
            coeffs = tuple(-Fraction(data.get(i, 0)) for i in range(k)) + (Fraction(1),)
            return MinimalPolynomial(coeffs)
        if len(terms) > TERM_CAP:
            break
        if budget.max_degree is not None and max(
                sum(table.packing.unpack(p)) for _, p, _ in terms) > budget.max_degree:
            break

    # the block order compares the old variables by the basis's own order,
    # so the basis stays a Groebner basis there and is extended by y - nf
    y = ring.fresh_auxiliary("y")
    ext = ring.extended(y, top=False)
    order = MonomialOrder.elimination(tuple(range(ring.nvars())), ext.nvars(), basis.order.scheme)
    gb = buchberger([ext.variable(y) - ext.transfer(nf)], order, budget, ring=ext,
                    known=[ext.transfer(g) for g in basis.elements])
    ypos = ext.position[y]
    univariate = [g for g in gb.elements if g.support_positions() <= {ypos}]
    if not univariate:
        return None
    if len(univariate) != 1:
        raise RuntimeError("reduced basis with two univariate elements")
    poly = univariate[0]
    degree = poly.total_degree()
    coeffs = [Fraction(0)] * (degree + 1)
    for mono, c in poly.terms.items():
        coeffs[mono[ypos]] = c
    return MinimalPolynomial(tuple(coeffs))


# -- certificate collapse and saturation ------------------------------------


def collapsed_certificate_values(space: GenericMatrixSpace, basis: GroebnerBasis,
                                 max_len: int, limits=None):
    """Normal forms of the certificates on n-th-power-free words against the
    relations basis.

    Returns (values, candidates): distinct nonzero reduced certificates (up
    to sign), in order of first appearance, and the number of provenance
    tuples (M0, M1..Mm), words * C(words, m).  `certificate_terms` computes
    one of them per set of 2n - 1 words, the others being 0 or + or - that
    one, and the values are those of all of them; `candidates` stays the
    size of the set they stand for, so `certificate_candidates` in `--json`,
    `-v` and the golden files is unchanged.  The values generate, together
    with the relations, the same ideal as the reductions of every member of
    the full certificate set; word-product entries are reduced as they are
    built, so nothing large is ever materialized.
    """
    words = certificate_words(space.s, max_len, space.n)
    values = []
    seen: set = set()
    for _, terms in certificate_terms(space, words, basis.table, Budget.of(limits)):
        value = tuple(terms)  # the normal form's terms, in descending order
        if value in seen or tuple((k, p, -c) for k, p, c in terms) in seen:
            continue
        seen.add(value)
        values.append(basis.table.polynomial(terms))
    return values, len(words) * comb(len(words), 2 * (space.n - 1))


def _shrink_multipliers(relations_basis: GroebnerBasis, values: Sequence[Polynomial],
                        order: MonomialOrder, budget: Budget) -> list:
    """The smaller of two multiplier sets: the certificate values, or a
    Groebner basis of what they add to the relations ideal.

    The saturation I : J^infinity only depends on I + J, so generators of
    (relations + certificates) that do not lie in the relations ideal give
    the same locus.  That basis can be smaller than the values (9 values
    become 1 multiplier on the free algebra on two generators at n = 2) or
    larger (1 value becomes 4 on Q[S3]).  Every multiplier is one more term
    of the saturation's h (see `saturate_principal`) and, past powers of 2,
    one more eliminated variable, so the smaller set wins and the basis wins
    ties.  A single value is kept as it is: no basis has fewer elements.
    The basis extends the relations basis, the reduced basis for `order`, by
    the values.
    """
    if len(values) < 2:
        return list(values)
    gb_all = buchberger(values, order, budget, ring=relations_basis.ring,
                        known=relations_basis.elements)
    shrunk = [g for g in gb_all.elements if not relations_basis.normal_form(g, budget).is_zero]
    return list(values) if len(values) < len(shrunk) else shrunk


def saturated_locus(relations_basis: GroebnerBasis, values: Sequence[Polynomial],
                    order: MonomialOrder, limits=None) -> tuple:
    """(locus, multipliers): the reduced basis for `order` of the relations
    ideal saturated at the certificate values, and the multipliers it was
    saturated at.

    The values are reduced modulo the relations and zeros and duplicates up
    to sign dropped.  None left means no certificate survives anywhere on
    the variety, so the locus is empty: the unit ideal.  A nonzero constant
    leaves the relations ideal itself (I : 1^infinity = I; the convention at
    n = 1).  Otherwise the locus is one `saturate_principal` at the smaller
    multiplier set of `_shrink_multipliers`: a single elimination that
    extends the relations basis, the reduced basis for `order`.
    """
    budget = Budget.of(limits)
    ring = relations_basis.ring
    if relations_basis.is_unit:
        return relations_basis, []
    reduced = []
    seen: set = set()
    for p in values:
        nf = relations_basis.normal_form(p, budget)
        if nf.is_zero or nf in seen or -nf in seen:
            continue
        seen.add(nf)
        reduced.append(nf)
    if not reduced:
        return buchberger([ring.one], order, budget, ring=ring), []
    constant = next((v for v in reduced if v.is_constant), None)
    if constant is not None:
        return relations_basis, [constant]
    multipliers = _shrink_multipliers(relations_basis, reduced, order, budget)
    return saturate_principal(relations_basis, *multipliers, limits=budget), multipliers


# -- the pipeline -----------------------------------------------------------


@dataclass
class PipelineRun:
    input: DecisionInput
    space: GenericMatrixSpace
    relations: Ideal
    relations_basis: GroebnerBasis | None
    locus_basis: GroebnerBasis | None
    generators: tuple  # their values are normal forms modulo the locus
    verdict: Verdict
    budget: Budget


def run_pipeline(decision_input: DecisionInput) -> PipelineRun:
    """Run decide end to end; resource overruns yield an inconclusive verdict."""
    opts = decision_input.options
    n = decision_input.n
    p = decision_input.presentation
    budget = Budget(opts.limits)
    order = base_order(opts.order)
    metrics = PipelineMetrics(n=n, s=p.num_generators, engine=budget.counters,
                              engine_by_stage=budget.stages, timings=budget.timings)

    space = build_generic_space(n, p.num_generators)
    metrics.variables = space.ring.nvars()
    verdict = Verdict(Outcome.INCONCLUSIVE, metrics=metrics)
    run = PipelineRun(decision_input, space, Ideal(space.ring), None, None, (), verdict, budget)

    try:
        with budget.stage("relations"):
            relations = relations_ideal(p, space)
            metrics.relation_generators = len(relations.generators)
            run.relations = relations
            relations_basis = buchberger(relations, order, budget)
            run.relations_basis = relations_basis
            metrics.relations_gb_size = len(relations_basis.elements)
            metrics.relations_gb_max_degree = relations_basis.max_degree()

        with budget.stage("certificates"):
            if n == 1:
                values = [space.ring.one]
                candidates = 1
            else:
                max_len = metrics.word_length_bound = length_bound(n)
                metrics.certificate_words = len(certificate_words(space.s, max_len, n))
                if relations_basis.is_unit:
                    values, candidates = [], 0
                else:
                    values, candidates = collapsed_certificate_values(
                        space, relations_basis, max_len, budget)
            metrics.certificate_candidates = candidates
            metrics.certificate_values = len(values)

        with budget.stage("locus"):
            locus, multipliers = saturated_locus(relations_basis, values, order, budget)
            metrics.multipliers = len(multipliers)
            run.locus_basis = locus
            metrics.locus_gb_size = len(locus.elements)
            metrics.locus_gb_max_degree = locus.max_degree()

        with budget.stage("algebraic"):
            gens = trace_generators(space, locus.table, budget)
            run.generators = gens
            metrics.trace_generator_count = len(gens)
            minimal = {}
            witness = None
            for tg in gens:
                mp = minimal_polynomial(tg.value, locus, budget)
                if mp is None:
                    witness = tg
                    break
                minimal[tg.word.render()] = mp
            if witness is not None:
                run.verdict = Verdict(Outcome.INFINITE, witness=witness,
                                      minimal_polynomials=minimal, metrics=metrics)
            else:
                run.verdict = Verdict(Outcome.FINITE, minimal_polynomials=minimal,
                                      metrics=metrics)
    except ResourceLimitExceeded as stop:
        run.verdict = Verdict(Outcome.INCONCLUSIVE, inconclusive_reason=str(stop),
                              inconclusive_stage=budget.current, metrics=metrics)
    return run


def decide_finiteness(decision_input: DecisionInput) -> Verdict:
    """The decision procedure: Finite, Infinite (with a trace witness), or
    Inconclusive when a resource limit interrupts the computation."""
    return run_pipeline(decision_input).verdict
