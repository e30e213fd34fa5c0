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
of the matrix L_g of multiplication by that generator g.  Every basis
element after the unit is b_i = b_p * g for an earlier b_p, so the structure
table follows from b_i * b_j = L_g(b_p * b_j), and the regular traces are
summed as its rows are built.  The Gram matrix follows from the same
matrices: phi_i(x) = Tr(b_i x) is phi_p o L_g, and phi_0 is the trace.
Structure constants and Gram entries are Python ints wherever they are
integral, and the rank is computed fraction-free (`linalg.matrix_rank`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .decide import Outcome, PipelineRun, _Stopwatch
from .genmat import TraceGenerator
from .groebner import Budget, GroebnerBasis, ResourceLimitExceeded
from .linalg import PolyEchelon, matrix_rank
from .poly import _int_if_integral


class InfiniteRepresentations(Exception):
    """Raised when a count is requested but the class set is infinite."""


@dataclass(frozen=True)
class FiniteDimAlgebra:
    """The trace subalgebra of the coordinate ring modulo the locus ideal,
    with a linear basis (basis[0] is the unit) and structure constants
    basis[i]*basis[j] = sum_l structure[i][j][l]*basis[l], each
    structure[i][j] a dict {l: int | Fraction} of the nonzero constants
    (ints unless a basis-times-generator product has a denominator).
    basis[i] = basis[p] * g_k for parents[i] = (p, k); columns[k][j] holds
    the coordinates of basis[j] * g_k, column j of the matrix L_k; traces[i]
    is the regular trace of basis[i]."""

    basis: tuple
    structure: tuple
    parents: tuple
    columns: tuple
    traces: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def build_quotient_algebra(locus: GroebnerBasis, generators: Sequence[TraceGenerator],
                           limits=None, max_dim: int = 4096) -> FiniteDimAlgebra:
    """Close the span of 1 under multiplication by the trace generators.

    Generators whose normal form is a constant cannot enlarge the span and
    are skipped.  The closure terminates exactly when every generator is
    algebraic modulo the locus ideal; max_dim is a safety valve against
    being called on an infinite family.

    The closure reduces every product basis[k] * g once, on packed terms,
    and those are the only normal forms taken.  The structure table follows
    row by row, b_i * b_j = L_g (b_p * b_j) for b_i = b_p * g.  This is
    exact, not a shortcut: the algebra is commutative and associative, the
    closure has checked that every basis-times-generator product lies in the
    span, and the span contains 1, so the rows are the coordinates of the
    reduced products b_i * b_j themselves.  Where b_j * g = e * b_l, entry j
    of row i is e times entry l of row p, the same dict when e is 1.
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
            images.append([(k, p, _int_if_integral(c)) for k, p, c in terms])
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
                elements.append([(k, p, _int_if_integral(c)) for k, p, c in product])
                basis.append(table.polynomial(product))
                parents.append((frontier, g))
                columns[g].append({value: 1})
                if len(basis) > max_dim:
                    raise ResourceLimitExceeded(
                        "basis", "quotient algebra dimension exceeded %d" % max_dim)
            else:
                columns[g].append(value)
        frontier += 1
    d = len(basis)
    structure = [[{j: 1} for j in range(d)]] + [[None] * d for _ in range(1, d)]
    traces = [d] + [0] * (d - 1)
    for i in range(1, d):
        budget.tick()
        p, g = parents[i]
        column, row, source = columns[g], structure[i], structure[p]
        row[:i] = [above[i] for above in structure[:i]]
        for j in range(i, d):
            if len(column[j]) == 1:
                (l, e), = column[j].items()
                row[j] = source[l] if e == 1 else {m: e * c for m, c in source[l].items()}
                continue
            out: dict = {}
            for k, c in source[j].items():
                for l, e in column[k].items():
                    out[l] = out.get(l, 0) + c * e
            row[j] = {l: c for l, c in out.items() if c}
        traces[i] = _int_if_integral(sum(row[j].get(j, 0) for j in range(d)))
    return FiniteDimAlgebra(tuple(basis), tuple(tuple(row) for row in structure),
                            tuple(parents), tuple(tuple(column) for column in columns),
                            tuple(traces))


@dataclass(frozen=True)
class TraceFormReport:
    gram: tuple  # tuple of tuples of int | Fraction, int where integral
    rank: int


def trace_form(algebra: FiniteDimAlgebra, limits=None) -> TraceFormReport:
    """Gram matrix Tr(b_i b_j) of the regular-representation trace form:
    row 0 is the traces, and row i is row p composed with L_g for
    b_i = b_p * g, G[i][j] = sum_l L_g[l][j] G[p][l]."""
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
            row[j] = total if type(total) is int else _int_if_integral(total)
    gram = tuple(tuple(row) for row in gram)
    return TraceFormReport(gram, matrix_rank(gram, budget))


@dataclass(frozen=True)
class CountReport:
    count: int
    algebra_dimension: int
    gram: tuple
    rank: int
    algebra: FiniteDimAlgebra | None = field(default=None, compare=False, repr=False)


def count_classes(locus: GroebnerBasis, generators: Sequence[TraceGenerator],
                  limits=None, max_dim: int = 4096) -> CountReport:
    """Exact number of classes over the algebraic closure.

    The unit locus ideal means no irreducible representation exists at all.
    Otherwise the rank of the trace form is the point count; a proper locus
    ideal always admits at least one irreducible point, so the result is
    then at least 1.
    """
    if locus.is_unit:
        return CountReport(0, 0, (), 0)
    budget = Budget.of(limits)
    algebra = build_quotient_algebra(locus, generators, budget, max_dim)
    report = trace_form(algebra, budget)
    return CountReport(report.rank, algebra.dimension, report.gram, report.rank, algebra)


def count_from_run(run: PipelineRun, limits=None) -> CountReport:
    """Count for a finished decision run; refuses infinite or unsettled runs.

    The count runs on the run's own budget unless other limits are given,
    so one deadline covers deciding and counting.
    """
    verdict = run.verdict
    if verdict.outcome is Outcome.INFINITE:
        witness = verdict.witness.render() if verdict.witness else "unknown"
        raise InfiniteRepresentations(
            "infinitely many classes (witness %s)" % witness)
    if verdict.outcome is Outcome.INCONCLUSIVE or run.locus_basis is None:
        raise ResourceLimitExceeded(
            "time", verdict.inconclusive_reason or "decision did not complete")
    budget = run.budget if limits is None else Budget.of(limits)
    with _Stopwatch(budget, verdict.metrics.timings).stage("count"):
        report = count_classes(run.locus_basis, run.generators, budget)
    verdict.metrics.algebra_dimension = report.algebra_dimension
    verdict.metrics.gram_rank = report.rank
    return report
