"""Class counting through the trace form.

The gram matrices for the one-generator algebras are frozen by hand:
with basis (1, x) of Q[x]/(f) the form is Tr(b_i b_j) of the regular
representation, e.g. for x^2 - x: Tr(1) = 2, Tr(x) = 1, Tr(x^2) = 1.
"""

import time
from fractions import Fraction

import pytest

from repcount.count import (
    InfiniteRepresentations,
    build_quotient_algebra,
    count_classes,
    count_from_run,
    trace_form,
)
from repcount.decide import DecisionInput, Outcome, decide_finiteness, run_pipeline
from repcount.groebner import ResourceLimitExceeded, ResourceLimits, buchberger
from repcount.poly import DivisorTable, MonomialOrder
from repcount.presentation import parse_presentation

from conftest import ALGEBRAS
from oracles import FractionEchelon, dense_fraction_rank, multiplication_matrix

GREVLEX = MonomialOrder.grevlex()


def F(*rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class TestKnownGramMatrices:
    def test_idempotent(self, pipelines):
        run = pipelines("idempotent", 1)
        report = count_from_run(run)
        assert report.gram == F([2, 1], [1, 1])
        assert report.count == 2

    def test_imaginary_unit(self, pipelines):
        run = pipelines("imaginary_unit", 1)
        report = count_from_run(run)
        assert report.gram == F([2, 0], [0, -2])
        assert report.count == 2

    def test_double_point(self, pipelines):
        run = pipelines("double_point", 1)
        report = count_from_run(run)
        assert report.gram == F([2, 0], [0, 0])
        assert report.count == 1  # the nilpotent drops the rank to 1


class TestCorpusCounts:
    @pytest.mark.parametrize("name,n,expected", [
        ("idempotent", 1, 2),
        ("imaginary_unit", 1, 2),
        ("double_point", 1, 1),
        ("s3", 1, 2),
        ("s3", 2, 1),
        ("weyl", 2, 0),
        ("commuting_plane", 2, 0),
    ])
    def test_counts(self, pipelines, name, n, expected):
        report = count_from_run(pipelines(name, n))
        assert report.count == expected, (name, n)

    def test_s3_dimension_two_is_one_point(self, pipelines):
        report = count_from_run(pipelines("s3", 2))
        assert report.algebra_dimension == 1
        assert report.gram == F([1])

    def test_no_generators(self):
        p = parse_presentation("generators:\n")
        assert count_from_run(run_pipeline(DecisionInput(p, 1))).count == 1
        assert count_from_run(run_pipeline(DecisionInput(p, 2))).count == 0


class TestGuards:
    def test_infinite_raises(self, pipelines):
        run = pipelines("free2", 1)
        with pytest.raises(InfiniteRepresentations) as info:
            count_from_run(run)
        assert "tr(x1)" in str(info.value)

    def test_unit_locus_counts_zero(self, pipelines):
        run = pipelines("weyl", 2)
        assert run.locus_basis.is_unit
        assert count_classes(run.locus_basis, run.generators).count == 0

    def test_algebra_on_unit_locus_rejected(self, pipelines):
        run = pipelines("weyl", 2)
        with pytest.raises(ValueError):
            build_quotient_algebra(run.locus_basis, run.generators)

    def test_count_runs_on_the_run_budget(self):
        p = parse_presentation((ALGEBRAS / "idempotent.alg").read_text())
        run = run_pipeline(DecisionInput(p, 1))
        run.budget.deadline = time.monotonic() - 1.0  # the decision used it all up
        with pytest.raises(ResourceLimitExceeded):
            count_from_run(run)
        assert count_from_run(run, ResourceLimits()).count == 2  # explicit limits

    def test_metrics_updated(self, pipelines):
        run = pipelines("idempotent", 1)
        count_from_run(run)
        assert run.verdict.metrics.algebra_dimension == 2
        assert run.verdict.metrics.gram_rank == 2


class TestAlgebraStructure:
    def test_unit_element_structure(self, pipelines):
        run = pipelines("idempotent", 1)
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        assert algebra.dimension == 2
        # multiplication by 1 is the identity matrix
        ident = multiplication_matrix(algebra, 0)
        assert ident == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert algebra.traces[0] == algebra.dimension

    def test_gram_is_symmetric(self, pipelines):
        run = pipelines("s3", 1)
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        report = trace_form(algebra)
        d = algebra.dimension
        for i in range(d):
            for j in range(d):
                assert report.gram[i][j] == report.gram[j][i]

    def test_idempotent_structure_constants(self, pipelines):
        run = pipelines("idempotent", 1)
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        # basis is (1, x) with x*x = x
        assert algebra.structure[1][1] == {1: Fraction(1)}


def direct_algebra(locus, generators):
    """The structure table the slow way: close the span of 1 under the
    generators, then reduce every product of two basis elements and read off
    its coordinates.  Independent of the multiplication-table recurrence."""
    ring = locus.ring
    images = [nf for nf in (locus.normal_form(tg.value) for tg in generators)
              if not nf.is_constant]
    echelon = FractionEchelon()
    echelon.insert(ring.one)
    basis = [ring.one]
    frontier = 0
    while frontier < len(basis):
        for g in images:
            product = locus.normal_form(basis[frontier] * g)
            if echelon.insert(product)[0] == "added":
                basis.append(product)
        frontier += 1
    structure = []
    for a in basis:
        row = []
        for b in basis:
            combo = echelon.express(locus.normal_form(a * b))
            assert combo is not None, "product escaped the span"
            row.append({l: c for l, c in combo.items() if c})
        structure.append(tuple(row))
    return tuple(basis), tuple(structure)


def direct_gram(basis, structure):
    d = len(basis)
    traces = [sum((structure[l][k].get(k, 0) for k in range(d)), Fraction(0))
              for l in range(d)]
    return tuple(tuple(sum((c * traces[l] for l, c in structure[i][j].items()), Fraction(0))
                       for j in range(d)) for i in range(d))


C4_C6 = """generators: x, y
relation: x^4 - 1
relation: y^6 - 1
relation: x*y - y*x
"""


# x = ±1/√2 and y^2 = x/3: four points, whose trace algebra has Fraction
# structure constants (x*x = 1/2) and a Fraction in its Gram matrix
NON_INTEGRAL = """generators: x, y
relation: x*y - y*x
relation: 2*x^2 - 1
relation: 3*y^2 - x
"""


# points (r, r + s) for x roots r in 2, 2, 1, 3, -1, -1 and lines y = x + s
# for s in -4, -2, -2, 2: 24 dimensions, 12 points, so the rank of the trace
# form is below the dimension; the relations are scaled by 2/3 and -5/2, and
# the monic locus basis has Fraction tails
TRIANGULAR = """generators: x, y
relation: 2/3*x^6 - 4*x^5 + 16/3*x^4 + 20/3*x^3 - 14*x^2 - 8/3*x + 8
relation: -5/2*x^4 + 10*x^3*y - 15*x^2*y^2 + 10*x*y^3 - 5/2*y^4 + 15*x^3 - 45*x^2*y + 45*x*y^2 - 15*y^3 - 10*x^2 + 20*x*y - 10*y^2 - 60*x + 60*y + 80
relation: x*y - y*x
"""


# at n = 1 these have no finite trace algebra: three infinite families, and
# the Weyl algebra, whose locus is the unit ideal
NO_ALGEBRA_AT_N1 = {"free2", "qplane", "commuting_plane", "weyl"}


def _oracle_cases():
    cases = [pytest.param(path.read_text(), 1, id=path.stem + "-n1")
             for path in sorted(ALGEBRAS.glob("*.alg")) if path.stem not in NO_ALGEBRA_AT_N1]
    cases.append(pytest.param((ALGEBRAS / "s3.alg").read_text(), 2, id="s3-n2"))
    cases.append(pytest.param(C4_C6, 1, id="c4xc6-n1"))
    cases.append(pytest.param(NON_INTEGRAL, 1, id="non-integral-n1"))
    cases.append(pytest.param(TRIANGULAR, 1, id="triangular-n1"))
    return cases


class TestStructureOracle:
    """The recurrence b_i * b_j = L_g(b_p * b_j) against direct reduction."""

    def test_no_algebra_cases_are_the_excluded_ones(self, pipelines):
        for name in NO_ALGEBRA_AT_N1:
            run = pipelines(name, 1)
            assert run.verdict.outcome is Outcome.INFINITE or run.locus_basis.is_unit, name

    @pytest.mark.parametrize("text,n", _oracle_cases())
    def test_recurrence_matches_direct_products(self, text, n):
        run = run_pipeline(DecisionInput(parse_presentation(text), n))
        assert run.verdict.outcome is Outcome.FINITE and not run.locus_basis.is_unit
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        basis, structure = direct_algebra(run.locus_basis, run.generators)
        assert algebra.basis == basis
        assert algebra.structure == structure
        assert trace_form(algebra).gram == direct_gram(basis, structure)

    def test_c4_c6_counts_its_points(self):
        report = count_from_run(run_pipeline(DecisionInput(parse_presentation(C4_C6), 1)))
        assert report.algebra_dimension == 24
        assert report.count == 24

    def test_triangular_rank_is_below_the_dimension(self):
        report = count_from_run(run_pipeline(DecisionInput(parse_presentation(TRIANGULAR), 1)))
        assert report.algebra_dimension == 24
        assert report.count == 12

    def test_integral_constants_are_ints(self):
        report = count_from_run(run_pipeline(DecisionInput(parse_presentation(C4_C6), 1)))
        constants = [c for row in report.algebra.structure for entry in row
                     for c in entry.values()]
        assert constants and all(type(c) is int for c in constants)
        assert all(type(c) is int for row in report.gram for c in row)

    def test_non_integral_algebra_keeps_its_fractions(self):
        run = run_pipeline(DecisionInput(parse_presentation(NON_INTEGRAL), 1))
        report = count_from_run(run)
        basis, structure = direct_algebra(run.locus_basis, run.generators)
        gram = direct_gram(basis, structure)
        assert report.algebra.structure == structure and report.gram == gram
        constants = [c for row in report.algebra.structure for entry in row
                     for c in entry.values()]
        assert Fraction(1, 2) in constants
        assert any(type(c) is Fraction and c.denominator > 1 for row in report.gram for c in row)
        assert report.count == dense_fraction_rank(gram) == 4

    def test_normal_forms_are_one_per_closure_product(self, monkeypatch):
        # every reduction, a Polynomial's normal form or a product of packed
        # terms, ends in one DivisorTable.remainder call
        run = run_pipeline(DecisionInput(parse_presentation(C4_C6), 1))
        calls = []
        original = DivisorTable.remainder

        def counting(self, terms, budget=None):
            calls.append(terms)
            return original(self, terms, budget)

        monkeypatch.setattr(DivisorTable, "remainder", counting)
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        k, d = len(run.generators), algebra.dimension
        # one per generator, then one per product of a basis element and a
        # nonconstant generator image (one column of L_g each)
        assert len(calls) == k + d * len(algebra.columns)
        assert 0 < len(calls) <= k * (d + 1)


def _presentation(generators, *relations):
    return "generators: %s\n" % generators + "".join("relation: %s\n" % r for r in relations)


# Q[G] for a finite group G is semisimple over the algebraic closure, with one
# simple factor M_d per complex irreducible character of degree d
# (Artin-Wedderburn), so the count at n is the number of degree-n characters.
# The degrees below are the groups' character tables, not pipeline output;
# the sum of their squares is the order of the group.
GROUP_ALGEBRAS = (
    [("C%d" % k, _presentation("a", "a^%d - 1" % k), k, [1] * k) for k in range(3, 9)]
    + [("D%d" % k, _presentation("a, b", "a^2 - 1", "b^%d - 1" % k, "a*b*a*b - 1"), 2 * k,
        [1, 1] + [2] * ((k - 1) // 2) if k % 2 else [1, 1, 1, 1] + [2] * ((k - 2) // 2))
       for k in range(3, 9)]
    + [("Q8", _presentation("a, b", "a^4 - 1", "b^2 - a^2", "b*a - a^3*b"), 8,
        [1, 1, 1, 1, 2]),
       ("A4", _presentation("a, b", "a^2 - 1", "b^3 - 1", "a*b*a*b*a*b - 1"), 12,
        [1, 1, 1, 3]),
       ("S4", _presentation("a, b", "a^2 - 1", "b^4 - 1", "a*b*a*b*a*b - 1"), 24,
        [1, 1, 2, 3, 3])])


class TestGroupAlgebras:
    @pytest.mark.parametrize("name,text,order,degrees",
                             [pytest.param(*case, id=case[0]) for case in GROUP_ALGEBRAS])
    @pytest.mark.parametrize("n", [1, 2])
    def test_count_is_the_number_of_characters_of_degree_n(self, name, text, order,
                                                           degrees, n):
        assert sum(d * d for d in degrees) == order
        report = count_from_run(run_pipeline(DecisionInput(parse_presentation(text), n)))
        assert report.count == degrees.count(n), (name, n)
