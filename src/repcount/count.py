"""Counting equivalence classes once they are known to be finite.

Distinct classes of n-dimensional irreducible representations correspond
bijectively to distinct trace vectors (character-zero semisimple modules
with equal traces are isomorphic), so the count is the number of closed
points, over the algebraic closure, of the subalgebra generated by the
trace generators inside the quotient by the locus ideal.  For a finite
dimensional commutative algebra in characteristic zero that number equals
the rank of the trace form Tr(ab) of the regular representation: the form
kills nilpotents and each point contributes exactly one to the rank.

The algebra is built by closing the span of 1 under multiplication by the
trace generators, on the packed terms of the locus basis's reduction kernel:
each basis-times-generator product is reduced once, and its coordinates in
the fraction-free echelon of the basis (`linalg.PolyEchelon`) are a column
of the matrix L_g of multiplication by that generator g.  These matrices are
all the count reads.  Every basis element after the unit is b_i = b_p * g
for an earlier b_p, so the regular traces follow from them by a backward
recurrence over the b_i (`build_quotient_algebra`), and the Gram matrix by
the same recurrence run forwards: phi_i(x) = Tr(b_i x) is phi_p o L_g, and
phi_0 is the trace.  Traces and Gram entries are Python ints wherever they
are integral, and the rank is computed fraction-free (`linalg.matrix_rank`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .decide import Outcome, PipelineRun
from .genmat import TraceGenerator
from .groebner import Budget, GroebnerBasis, ResourceLimitExceeded
from .linalg import PolyEchelon, matrix_rank
from .poly import int_if_integral


class InfiniteRepresentations(Exception):
    """Raised when a count is requested but the class set is infinite."""


@dataclass(frozen=True)
class FiniteDimAlgebra:
    """The trace subalgebra of the coordinate ring modulo the locus ideal,
    with a linear basis (basis[0] is the unit), basis[i] = basis[p] * g_k
    for parents[i] = (p, k).  columns[k][j], a dict {l: int | Fraction} of
    the nonzero coordinates of basis[j] * g_k, is column j of the matrix
    L_k (ints unless a basis-times-generator product has a denominator);
    traces[i] is the regular trace of basis[i]."""

    basis: tuple
    parents: tuple
    columns: tuple
    traces: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


MAX_DIMENSION = 4096  # the closure's safety valve against an infinite family


def build_quotient_algebra(locus: GroebnerBasis, generators: Sequence[TraceGenerator],
                           limits=None) -> FiniteDimAlgebra:
    """Close the span of 1 under multiplication by the trace generators.

    Generators whose normal form is a constant cannot enlarge the span and
    are skipped.  The closure terminates exactly when every generator is
    algebraic modulo the locus ideal; past MAX_DIMENSION elements it raises
    ResourceLimitExceeded("basis").  It reduces every product basis[k] * g
    once, on packed terms, and takes no other normal form.

    The traces follow from the multiplication matrices alone, backwards:
    S_i starts as the coordinate functional e_i*, and for i = d - 1 down to
    1, with b_i = b_p * g, S_i o L_g is added to S_p.  A child comes after
    its parent, so S_i is complete when it is read, and S_0 ends as
    x -> Tr(L_x) = sum_j e_j*(b_j x), since L_{b_i} = L_{b_p} L_g in a
    commutative algebra and the closure has checked that the span is closed.
    """
    budget = Budget.of(limits)
    ring = locus.ring
    if locus.is_unit:
        raise ValueError("the locus ideal is the unit ideal; the algebra is zero")
    table = locus.table
    images = []
    for tg in generators:
        terms = table.remainder(table.pack(tg.value), budget)
        if len(terms) > 1 or terms and terms[0][1]:  # not a constant
            images.append(terms)
    echelon = PolyEchelon()
    elements = [table.pack(ring.one)]  # the basis as packed terms
    echelon.insert(elements[0])
    basis, parents = [ring.one], [None]
    columns = [[] for _ in images]  # columns[g][k]: coordinates of basis[k] * images[g]
    frontier = 0
    while frontier < len(elements):
        for g, image in enumerate(images):
            budget.tick()
            product = table.product([(elements[frontier], image)], budget)
            status, value = echelon.insert(product)
            if status == "added":
                elements.append(product)
                basis.append(table.polynomial(product))
                parents.append((frontier, g))
                columns[g].append({value: 1})
                if len(basis) > MAX_DIMENSION:
                    raise ResourceLimitExceeded(
                        "basis", "quotient algebra dimension exceeded %d" % MAX_DIMENSION)
            else:
                columns[g].append(value)
        frontier += 1
    d = len(basis)
    rows = [[{} for _ in range(d)] for _ in columns]  # rows[g][l]: {k: L_g[l][k]}
    for row, column in zip(rows, columns):
        for k, entries in enumerate(column):
            for l, c in entries.items():
                row[l][k] = c
    functionals = [{i: 1} for i in range(d)]  # S_i, as {k: S_i(b_k)}
    for i in range(d - 1, 0, -1):
        budget.tick()
        p, g = parents[i]
        target, row = functionals[p], rows[g]
        for l, s in functionals[i].items():
            for k, c in row[l].items():
                target[k] = target.get(k, 0) + s * c
        functionals[i] = None
    trace = functionals[0]
    traces = tuple(int_if_integral(trace.get(k, 0)) for k in range(d))
    return FiniteDimAlgebra(tuple(basis), tuple(parents),
                            tuple(tuple(column) for column in columns), traces)


def trace_form(algebra: FiniteDimAlgebra, limits=None) -> tuple:
    """Gram matrix Tr(b_i b_j) of the regular-representation trace form, a
    tuple of rows of ints (Fractions where not integral): row 0 is the
    traces, and row i is row p composed with L_g for b_i = b_p * g,
    G[i][j] = sum_l L_g[l][j] G[p][l]."""
    budget = Budget.of(limits)
    d = algebra.dimension
    gram = [list(algebra.traces)] + [[None] * d for _ in range(1, d)]
    for i in range(1, d):
        budget.tick()
        p, g = algebra.parents[i]
        column, row, source = algebra.columns[g], gram[i], gram[p]
        row[:i] = [above[i] for above in gram[:i]]
        for j in range(i, d):
            total = 0
            for l, c in column[j].items():
                total += c * source[l]
            row[j] = total if type(total) is int else int_if_integral(total)
    return tuple(tuple(row) for row in gram)


@dataclass(frozen=True)
class CountReport:
    count: int
    algebra_dimension: int
    gram: tuple
    algebra: FiniteDimAlgebra | None = field(default=None, compare=False, repr=False)


def count_classes(locus: GroebnerBasis, generators: Sequence[TraceGenerator],
                  limits=None) -> CountReport:
    """Exact number of classes over the algebraic closure.

    The unit locus ideal means no irreducible representation exists at all.
    Otherwise the rank of the trace form is the point count; a proper locus
    ideal always admits at least one irreducible point, so the result is
    then at least 1.
    """
    if locus.is_unit:
        return CountReport(0, 0, ())
    budget = Budget.of(limits)
    algebra = build_quotient_algebra(locus, generators, budget)
    gram = trace_form(algebra, budget)
    return CountReport(matrix_rank(gram, budget), algebra.dimension, gram, algebra)


def count_from_run(run: PipelineRun, limits=None) -> CountReport:
    """Count for a finished decision run; refuses infinite or unsettled runs,
    an unsettled one with the overrun that stopped it.

    The count runs on the run's own budget unless other limits are given,
    so one deadline covers deciding and counting.  With explicit limits, the
    count's engine counters and seconds go to that budget, not to the run's
    metrics.
    """
    verdict = run.verdict
    if verdict.outcome is Outcome.INFINITE:
        witness = verdict.witness.render() if verdict.witness else "unknown"
        raise InfiniteRepresentations(
            "infinitely many classes (witness %s)" % witness)
    if verdict.outcome is Outcome.INCONCLUSIVE:
        raise run.overrun
    budget = run.budget if limits is None else Budget.of(limits)
    with budget.stage("count"):
        report = count_classes(run.locus_basis, run.generators, budget)
    verdict.metrics.algebra_dimension = report.algebra_dimension
    verdict.metrics.gram_rank = report.count
    return report
