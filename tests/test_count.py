"""Class counting through the trace form.

The gram matrices for the one-generator algebras are frozen by hand:
with basis (1, x) of Q[x]/(f) the form is Tr(b_i b_j) of the regular
representation, e.g. for x^2 - x: Tr(1) = 2, Tr(x) = 1, Tr(x^2) = 1.
"""

import json
import time
import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest

from repcount import count
from repcount.cli import main
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
        assert algebra.basis[0] == run.locus_basis.ring.one and algebra.parents[0] is None
        # multiplication by 1 is the identity matrix
        _, _, structure = direct_algebra(run.locus_basis, run.generators)
        ident = multiplication_matrix(structure, 0)
        assert ident == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert algebra.traces[0] == algebra.dimension

    def test_gram_is_symmetric(self, pipelines):
        run = pipelines("s3", 1)
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        gram = trace_form(algebra)
        d = algebra.dimension
        for i in range(d):
            for j in range(d):
                assert gram[i][j] == gram[j][i]

    def test_idempotent_structure_constants(self, pipelines):
        run = pipelines("idempotent", 1)
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        # basis is (1, x) with x*x = x: both columns of L_x are x
        assert algebra.parents == (None, (0, 0))
        assert algebra.columns == (({1: 1}, {1: 1}),)
        assert algebra.traces == (2, 1)


def direct_algebra(locus, generators):
    """The algebra the slow way: close the span of 1 under the generators,
    then reduce every product of a basis element with a generator image and
    every product of two basis elements, and read off their coordinates.
    Returns the basis, the columns of the multiplication matrices L_g and
    the structure table.  Independent of the trace recurrence."""
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

    def coordinates(f):
        combo = echelon.express(locus.normal_form(f))
        assert combo is not None, "product escaped the span"
        return {l: c for l, c in combo.items() if c}

    columns = tuple(tuple(coordinates(b * g) for b in basis) for g in images)
    structure = tuple(tuple(coordinates(a * b) for b in basis) for a in basis)
    return tuple(basis), columns, structure


def direct_traces(structure):
    d = len(structure)
    return tuple(sum((structure[l][k].get(k, 0) for k in range(d)), Fraction(0))
                 for l in range(d))


def direct_gram(structure):
    d = len(structure)
    traces = direct_traces(structure)
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
    """The multiplication matrices, the backward trace recurrence and the
    Gram recurrence against direct reduction."""

    def test_no_algebra_cases_are_the_excluded_ones(self, pipelines):
        for name in NO_ALGEBRA_AT_N1:
            run = pipelines(name, 1)
            assert run.verdict.outcome is Outcome.INFINITE or run.locus_basis.is_unit, name

    @pytest.mark.parametrize("text,n", _oracle_cases())
    def test_recurrence_matches_direct_products(self, text, n):
        run = run_pipeline(DecisionInput(parse_presentation(text), n))
        assert run.verdict.outcome is Outcome.FINITE and not run.locus_basis.is_unit
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        basis, columns, structure = direct_algebra(run.locus_basis, run.generators)
        assert algebra.basis == basis
        assert algebra.columns == columns
        assert algebra.traces == direct_traces(structure)
        assert trace_form(algebra) == direct_gram(structure)

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
        constants = [c for column in chain(*report.algebra.columns) for c in column.values()]
        assert constants and all(type(c) is int for c in constants)
        assert all(type(c) is int for c in report.algebra.traces)
        assert all(type(c) is int for row in report.gram for c in row)

    def test_non_integral_algebra_keeps_its_fractions(self):
        run = run_pipeline(DecisionInput(parse_presentation(NON_INTEGRAL), 1))
        report = count_from_run(run)
        _, columns, structure = direct_algebra(run.locus_basis, run.generators)
        gram = direct_gram(structure)
        assert report.algebra.columns == columns and report.gram == gram
        assert report.algebra.traces == direct_traces(structure)
        constants = [c for column in chain(*report.algebra.columns) for c in column.values()]
        assert Fraction(1, 2) in constants
        assert any(type(c) is Fraction and c.denominator > 1 for row in report.gram for c in row)
        assert report.count == dense_fraction_rank(gram) == 4

    def test_remainder_returns_ints_where_integral(self):
        # the triangular locus basis is monic with Fraction tails, so its
        # reductions pass through Fractions that are often integral
        run = run_pipeline(DecisionInput(parse_presentation(TRIANGULAR), 1))
        table = run.locus_basis.table
        algebra = build_quotient_algebra(run.locus_basis, run.generators)
        elements = [table.pack(b) for b in algebra.basis]
        images = [table.remainder(table.pack(tg.value)) for tg in run.generators]
        products = [table.product([(a, b)]) for a in elements for b in elements + images]
        outputs = [c for terms in images + products for _, _, c in terms]
        assert any(type(c) is Fraction for c in outputs)
        assert not [c for c in outputs if type(c) is Fraction and c.denominator == 1]

    def test_dimension_cap_is_a_basis_limit(self, monkeypatch, capsys, tmp_path):
        run = run_pipeline(DecisionInput(parse_presentation(C4_C6), 1))
        monkeypatch.setattr(count, "MAX_DIMENSION", 10)  # C4 x C6 has dimension 24
        with pytest.raises(ResourceLimitExceeded) as info:
            build_quotient_algebra(run.locus_basis, run.generators)
        assert info.value.kind == "basis"
        assert "quotient algebra dimension exceeded 10" in str(info.value)
        path = tmp_path / "c4xc6.alg"
        path.write_text(C4_C6)
        assert main(["count", str(path), "-n", "1", "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "resource-limit" and payload["stage"] == "count"
        assert payload["verdict"] == "finite" and payload["count"] is None

    def test_building_stays_below_the_size_of_a_structure_table(self):
        # C24 x C24 at n = 1: dimension 576; with a d x d table of dicts the
        # peak was about 6 MB, and the multiplication matrices and the live
        # trace functionals take about 1.3 MB
        text = _presentation("x, y", "x^24 - 1", "y^24 - 1", "x*y - y*x")
        run = run_pipeline(DecisionInput(parse_presentation(text), 1))
        tracemalloc.start()
        try:
            algebra = build_quotient_algebra(run.locus_basis, run.generators)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert algebra.dimension == 576
        assert peak < 3 * 2**20, peak

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
