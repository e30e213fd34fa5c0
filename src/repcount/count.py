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
trace generators, which yields the matrices L_g of multiplication by each
generator g.  Every basis element after the unit is b_i = b_p * g for an
earlier b_p, so b_i * b_j = L_g(b_p * b_j): the structure table follows from
those matrices without reducing any product of two basis elements.

Structure constants and Gram entries are Python ints wherever they are
integral, and Fractions only where a denominator appears; the rank of the
Gram matrix is computed fraction-free (see `linalg.matrix_rank`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .decide import Outcome, PipelineRun
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
    basis[i]*basis[j] = sum_l structure[i][j][l]*basis[l].

    Each structure[i][j] is a dict {l: int | Fraction} of the nonzero
    constants; a constant is an int unless the coordinates of a
    basis-times-generator product have a denominator."""

    basis: tuple
    structure: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def regular_trace(self, i: int) -> int | Fraction:
        return sum(self.structure[i][k].get(k, 0) for k in range(self.dimension))


def build_quotient_algebra(locus: GroebnerBasis, generators: Sequence[TraceGenerator],
                           limits=None, max_dim: int = 4096) -> FiniteDimAlgebra:
    """Close the span of 1 under multiplication by the trace generators.

    Generators whose normal form is a constant cannot enlarge the span and
    are skipped.  The closure terminates exactly when every generator is
    algebraic modulo the locus ideal; max_dim is a safety valve against
    being called on an infinite family.

    The closure reduces every product basis[k] * g once, and those are the
    only normal forms taken: their coordinates are column k of the matrix
    L_g of multiplication by g.  Each new element is b_i = b_p * g mod the
    locus for a parent p < i, so b_i * b_j = L_g (b_p * b_j), and the
    structure constants follow row by row from row p.  This is exact, not a
    shortcut: the algebra is commutative and associative, the closure has
    checked that every basis-times-generator product lies in the span, and
    the span contains 1, so the rows are the coordinates of the reduced
    products b_i * b_j themselves.
    """
    budget = Budget.of(limits)
    ring = locus.ring
    if locus.is_unit:
        raise ValueError("the locus ideal is the unit ideal; the algebra is zero")
    images = []
    for tg in generators:
        nf = locus.normal_form(tg.value, budget)
        if not nf.is_constant:
            images.append(nf)
    echelon = PolyEchelon()
    echelon.insert(ring.one)
    basis = [ring.one]
    parents = [None]  # parents[i] = (p, g) with basis[i] = basis[p] * images[g]
    columns = [[] for _ in images]  # columns[g][k]: coordinates of basis[k] * images[g]
    frontier = 0
    while frontier < len(basis):
        element = basis[frontier]
        for g, image in enumerate(images):
            budget.tick()
            product = locus.normal_form(element * image, budget)
            status, value = echelon.insert(product)
            if status == "added":
                basis.append(product)
                parents.append((frontier, g))
                columns[g].append({value: 1})
                if len(basis) > max_dim:
                    raise ResourceLimitExceeded(
                        "basis", "quotient algebra dimension exceeded %d" % max_dim)
            else:
                columns[g].append({k: _int_if_integral(c) for k, c in value.items()})
        frontier += 1
    d = len(basis)
    structure = [[{j: 1} for j in range(d)]] + [[None] * d for _ in range(1, d)]
    for i in range(1, d):
        budget.tick()
        p, g = parents[i]
        column = columns[g]
        row, source = structure[i], structure[p]
        for j in range(i):
            row[j] = structure[j][i]
        for j in range(i, d):
            out: dict = {}
            for k, c in source[j].items():
                for l, e in column[k].items():
                    out[l] = out.get(l, 0) + c * e
            row[j] = {l: c for l, c in out.items() if c}
    return FiniteDimAlgebra(tuple(basis), tuple(tuple(row) for row in structure))


@dataclass(frozen=True)
class TraceFormReport:
    gram: tuple  # tuple of tuples of int | Fraction, int where integral
    rank: int


def trace_form(algebra: FiniteDimAlgebra, limits=None) -> TraceFormReport:
    """Gram matrix Tr(b_i b_j) of the regular-representation trace form."""
    budget = Budget.of(limits)
    d = algebra.dimension
    traces = [algebra.regular_trace(l) for l in range(d)]
    gram = [[None] * d for _ in range(d)]
    for i in range(d):
        budget.tick()
        row = algebra.structure[i]
        for j in range(i, d):
            total = 0
            for l, c in row[j].items():
                total += c * traces[l]
            gram[i][j] = gram[j][i] = _int_if_integral(total)
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
    with budget.stage("count"):
        report = count_classes(run.locus_basis, run.generators, budget)
    verdict.metrics.algebra_dimension = report.algebra_dimension
    verdict.metrics.gram_rank = report.rank
    return report
