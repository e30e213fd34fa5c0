"""Buchberger, ideal operations, and resource limits.

The random-ideal comparisons against sympy's groebner are the main safety
net here: two unrelated implementations agreeing on reduced bases over QQ.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.orderings import ProductOrder, grevlex
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repcount.genmat import build_generic_space, relations_ideal
from repcount.groebner import (
    Budget,
    GroebnerBasis,
    Ideal,
    ResourceLimitExceeded,
    ResourceLimits,
    buchberger,
    ideal_quotient,
    intersect,
    saturate_principal,
)
from repcount.poly import (
    DivisorTable,
    MonomialOrder,
    PolyRing,
    Polynomial,
    auxiliary,
    leading_term,
)
from repcount.presentation import parse_presentation

from conftest import ALGEBRAS
from oracles import (
    buchberger_reference,
    eliminate,
    equal_ideals,
    make_monic,
    primitive_part,
    s_polynomial,
    saturate,
    unit_ideal,
)

GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


def ring_xyz(k=3):
    return PolyRing.ranked([auxiliary("t", i) for i in range(k)])


R = ring_xyz(3)
X, Y, Z = (R.variable(v) for v in R.variables)
R2 = ring_xyz(2)
U, V = (R2.variable(v) for v in R2.variables)


def gb_set(basis):
    return set(basis.elements)


class TestHandCases:
    def test_two_lines(self):
        basis = buchberger([U - V, U + V], LEX, ring=R2)
        assert gb_set(basis) == {U, V}

    def test_s_polynomial_classic(self):
        f = U * U - V
        g = U * V - 1
        assert s_polynomial(f, g, LEX) == U - V * V

    def test_parabola_hyperbola(self):
        # <u^2 - v, u*v - 1>: reduced lex basis is {u - v^2, v^3 - 1}
        basis = buchberger([U * U - V, U * V - 1], LEX, ring=R2)
        assert gb_set(basis) == {U - V * V, V ** 3 - 1}

    def test_unit_normalizes_to_one(self):
        basis = buchberger([U * 2, U + 1], LEX, ring=R2)
        assert basis.is_unit
        assert basis.elements == (R2.one,)
        basis2 = buchberger([R2.constant(Fraction(2, 3))], LEX, ring=R2)
        assert basis2.elements == (R2.one,)

    def test_zero_ideal(self):
        basis = buchberger([], GREVLEX, ring=R2)
        assert basis.elements == ()
        assert basis.normal_form(U * V + 1) == U * V + 1

    def test_intersection_of_axes(self):
        left = Ideal(R2, [U])
        right = Ideal(R2, [V])
        both = intersect(left, right)
        assert equal_ideals(both, Ideal(R2, [U * V]))

    def test_quotients(self):
        assert equal_ideals(ideal_quotient(Ideal(R2, [U * V]), U), Ideal(R2, [V]))
        assert equal_ideals(ideal_quotient(Ideal(R2, [U * U]), U), Ideal(R2, [U]))

    def test_saturations(self):
        sat = saturate(Ideal(R2, [U * U * V]), [U])
        assert equal_ideals(sat, Ideal(R2, [V]))
        # v is already inside, so saturating at v sweeps everything away
        sat2 = saturate(Ideal(R2, [U * U, V]), [V])
        assert equal_ideals(sat2, unit_ideal(R2))

    def test_saturation_detects_radical_membership(self):
        # u is in the radical of <u^2> so the saturation is the unit ideal
        assert saturate(Ideal(R2, [U * U]), [U]).generators[0].is_constant

    def test_eliminate(self):
        ideal = Ideal(R2, [U - V * V, U * V - 1])
        only_v = eliminate(ideal, [R2.variables[0]])
        assert equal_ideals(only_v, Ideal(R2, [V ** 3 - 1]))

    def test_elimination_keeps_nothing_when_everything_mixes(self):
        ideal = Ideal(R2, [U * V - 1])
        assert eliminate(ideal, [R2.variables[0]]).generators == ()


class TestBasisProperties:
    def test_bases_over_rings_built_twice_are_equal(self):
        other = ring_xyz(3)
        x, y, z = (other.variable(v) for v in other.variables)
        mine = buchberger([X * Y - Z, Y * Y - 1], GREVLEX, ring=R)
        theirs = buchberger([x * y - z, y * y - 1], GREVLEX, ring=other)
        assert other is not R
        assert mine == theirs and hash(mine) == hash(theirs)
        assert mine != buchberger([X * Y - Z], GREVLEX, ring=R)

    def test_generators_reduce_to_zero(self):
        gens = [X * Y - Z, Y * Y - 1, X * Z - Y]
        basis = buchberger(gens, GREVLEX, ring=R)
        for g in gens:
            assert basis.contains(g)

    def test_all_s_polynomials_reduce_to_zero(self):
        basis = buchberger([X * Y - Z, Y * Z - X, Z * X - Y], GREVLEX, ring=R)
        elems = basis.elements
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                s = s_polynomial(elems[i], elems[j], GREVLEX)
                assert basis.normal_form(s).is_zero

    def test_reduced_basis_is_self_reduced(self):
        basis = buchberger([X * X + Y, X * Y + Z, Y * Z - X], GREVLEX, ring=R)
        for k, g in enumerate(basis.elements):
            others = [h for i, h in enumerate(basis.elements) if i != k]
            if not others:
                continue
            rest = GroebnerBasis(R, GREVLEX, others)
            assert rest.normal_form(g) == g
            assert leading_term(g, GREVLEX)[1] == 1

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permutation_and_scaling_invariance(self, rng):
        gens = [X * Y - 1, X * X - Z, Y * Z - X, Z * Z - Y * X]
        reference = buchberger(gens, GREVLEX, ring=R)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [g * Fraction(rng.randrange(1, 7), rng.randrange(1, 5)) for g in shuffled]
        assert buchberger(scaled, GREVLEX, ring=R) == reference

    def test_membership_via_normal_form(self):
        basis = buchberger([X - Y, Y - Z], GREVLEX, ring=R)
        assert basis.contains(X - Z)
        assert not basis.contains(X + Z)


def _to_sympy(f, syms):
    expr = 0
    for mono, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, mono):
            term *= s ** e
        expr += term
    return expr


def _from_sympy(expr, ring, syms):
    out = ring.zero
    for exps, coeff in sympy.Poly(expr, *syms).terms():
        c = Fraction(int(coeff.p), int(coeff.q))
        out = out + Polynomial._raw(ring, {tuple(int(e) for e in exps): Fraction(1)}) * c
    return out


def _random_poly(ring, rng, max_terms=3, max_exp=2, coeffs=(-3, -2, -1, 1, 2, 3)):
    out = ring.zero
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = tuple(rng.randrange(0, max_exp + 1) for _ in range(ring.nvars()))
        coeff = rng.choice(coeffs)
        out = out + Polynomial._raw(ring, {mono: Fraction(1)}) * coeff
    return out


# non-monic and non-integral: leading coefficients that do not divide the
# coefficients they cancel, so normal forms leave the int path
RATIONAL_COEFFS = (Fraction(-7, 3), Fraction(-3, 2), -2, Fraction(2, 5), 3, Fraction(5, 4), 6)


def _sympy_block_order(dropped, nvars):
    retained = [p for p in range(nvars) if p not in dropped]
    return ProductOrder((grevlex, lambda m: tuple(m[p] for p in dropped)),
                        (grevlex, lambda m: tuple(m[p] for p in retained)))


class TestAgainstSympy:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_ideals_match_sympy(self, seed):
        rng = random.Random(1000 + seed)
        ring = ring_xyz(3)
        syms = sympy.symbols("t0 t1 t2")
        gens = [_random_poly(ring, rng) for _ in range(rng.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            return
        mine = buchberger(gens, GREVLEX, ring=ring)
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens],
                                *syms, order="grevlex")
        theirs_elements = {make_monic(_from_sympy(p, ring, syms), GREVLEX)
                           for p in theirs.exprs}
        assert set(mine.elements) == theirs_elements

    @pytest.mark.parametrize("seed", range(4))
    def test_lex_ideals_match_sympy(self, seed):
        rng = random.Random(7000 + seed)
        ring = ring_xyz(2)
        syms = sympy.symbols("t0 t1")
        gens = [_random_poly(ring, rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            return
        mine = buchberger(gens, LEX, ring=ring)
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="lex")
        theirs_elements = {make_monic(_from_sympy(p, ring, syms), LEX)
                           for p in theirs.exprs}
        assert set(mine.elements) == theirs_elements


    @pytest.mark.parametrize("seed", range(12))
    def test_block_orders_with_rational_coefficients_match_sympy(self, seed):
        rng = random.Random(9100 + seed)
        ring = ring_xyz(3)
        syms = sympy.symbols("t0 t1 t2")
        dropped = [(0,), (1,), (2,), (0, 1), (1, 2)][seed % 5]
        order = MonomialOrder.elimination(dropped, 3)
        gens = [_random_poly(ring, rng, coeffs=RATIONAL_COEFFS)
                for _ in range(rng.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero]
        mine = buchberger(gens, order, ring=ring)
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                                order=_sympy_block_order(dropped, 3))
        theirs_elements = {make_monic(_from_sympy(p, ring, syms), order)
                           for p in theirs.exprs}
        assert set(mine.elements) == theirs_elements

    @pytest.mark.parametrize("seed", range(8))
    def test_rational_grevlex_ideals_match_sympy(self, seed):
        rng = random.Random(9300 + seed)
        ring = ring_xyz(3)
        syms = sympy.symbols("t0 t1 t2")
        gens = [_random_poly(ring, rng, max_terms=4, coeffs=RATIONAL_COEFFS)
                for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        mine = buchberger(gens, GREVLEX, ring=ring)
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="grevlex")
        theirs_elements = {make_monic(_from_sympy(p, ring, syms), GREVLEX)
                           for p in theirs.exprs}
        assert set(mine.elements) == theirs_elements


class TestSPairs:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(),
           st.sampled_from([GREVLEX, LEX, MonomialOrder.elimination((0,), 3),
                            MonomialOrder.elimination((1, 2), 3, inner="lex")]))
    def test_s_pair_is_a_multiple_of_the_reduced_s_polynomial(self, rng, primitive, order):
        # the table pseudo-divides on ints, so it hands back some nonzero
        # integer multiple of the remainder, which insertion makes primitive
        divisors = [_random_poly(R, rng, max_terms=4, coeffs=RATIONAL_COEFFS) for _ in range(4)]
        divisors = [primitive_part(g, order) if primitive else g
                    for g in divisors if not g.is_zero]
        table = DivisorTable(divisors, order)
        for i in range(len(divisors)):
            for j in range(i + 1, len(divisors)):
                terms = table.s_pair(i, j)
                assert all(type(c) is int for _, _, c in terms)
                got = table.polynomial(terms)
                expected = table.normal_form(s_polynomial(divisors[i], divisors[j], order))
                assert got.is_zero == expected.is_zero
                if not got.is_zero:
                    assert make_monic(got, order) == make_monic(expected, order)


D5 = """generators: a, b
relation: a^2 - 1
relation: b^5 - 1
relation: a*b*a*b - 1
"""


class TestPackedEngine:
    """`buchberger` against `oracles.buchberger_reference`, the same engine
    with its basis as Polynomials and its pair update on exponent tuples:
    the reduced bases and every engine counter must be equal."""

    @staticmethod
    def assert_same_run(gens, order, ring, limits=None):
        # the engines do the same work, so a cap on the degree or the basis
        # size stops both at the same insertion
        results = []
        for engine in (buchberger, buchberger_reference):
            budget = Budget(limits)
            try:
                basis = engine(gens, order, budget, ring=ring)
                elements = basis.elements
                # the basis keeps the table it was interreduced in
                assert basis.table.entries == DivisorTable(elements, order).entries
            except ResourceLimitExceeded as stop:
                elements = str(stop)
            results.append((elements, budget.counters))
        assert results[0] == results[1]

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(),
           st.sampled_from([GREVLEX, LEX, MonomialOrder.elimination((0,), 3),
                            MonomialOrder.elimination((1, 2), 3, inner="lex")]))
    def test_random_ideals(self, rng, rational, order):
        coeffs = RATIONAL_COEFFS if rational else (-3, -2, -1, 1, 2, 3)
        gens = [_random_poly(R, rng, coeffs=coeffs) for _ in range(rng.randrange(2, 4))]
        self.assert_same_run(gens, order, R, ResourceLimits(max_degree=10, max_basis=30))

    @pytest.mark.parametrize("text", [(ALGEBRAS / "s3.alg").read_text(), D5])
    def test_group_relations_ideals_at_n2(self, text):
        presentation = parse_presentation(text)
        ideal = relations_ideal(presentation, build_generic_space(2, presentation.num_generators))
        self.assert_same_run(ideal, GREVLEX, ideal.ring)


class TestExtension:
    """`buchberger(new, order, known=G)` extends a reduced basis G for order:
    the same reduced basis as a run on G and the new generators together."""

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(),
           st.sampled_from([GREVLEX, LEX, MonomialOrder.elimination((0,), 3),
                            MonomialOrder.elimination((1, 2), 3, inner="lex")]))
    def test_extending_equals_rebuilding(self, rng, rational, order):
        # the caps keep the rare ideal with a huge basis out; the extension,
        # whose intermediate elements differ, gets looser ones
        coeffs = RATIONAL_COEFFS if rational else (-3, -2, -1, 1, 2, 3)
        first = [_random_poly(R, rng, coeffs=coeffs) for _ in range(rng.randrange(1, 3))]
        new = [_random_poly(R, rng, coeffs=coeffs) for _ in range(rng.randrange(0, 3))]
        caps = ResourceLimits(max_degree=10, max_basis=30)
        try:
            known = buchberger(first, order, caps, ring=R)
            rebuilt = buchberger(list(known.elements) + new, order, caps, ring=R)
        except ResourceLimitExceeded:
            assume(False)
        extended = buchberger(new, order, ResourceLimits(max_degree=20, max_basis=60), ring=R,
                              known=known.elements)
        assert repr(extended) == repr(rebuilt)
        assert extended.table.entries == DivisorTable(extended.elements, order).entries

    def test_known_pairs_are_not_reduced(self):
        known = buchberger([X * Y - Z, Y * Z - X, Z * X - Y], GREVLEX, ring=R)
        budget = Budget()
        assert buchberger([], GREVLEX, budget, ring=R, known=known.elements) == known
        assert budget.counters.s_pairs == 0
        assert buchberger([X - 1], GREVLEX, ring=R, known=known.elements) == \
            buchberger(list(known.elements) + [X - 1], GREVLEX, ring=R)

    def test_a_unit_basis_stays_the_unit_ideal(self):
        assert buchberger([X], GREVLEX, ring=R, known=[R.one]).elements == (R.one,)


class TestEngineCounters:
    def test_counters_accumulate_on_the_budget(self):
        gens = [X * Y - Z, Y * Z - X, Z * X - Y, X * X - 1]
        budget = Budget()
        first = buchberger(gens, GREVLEX, budget, ring=R)
        c = budget.counters
        assert c.s_pairs > 0
        assert 0 < c.zero_reductions < c.s_pairs
        assert c.dropped_coprime + c.dropped_mf + c.dropped_b > 0
        assert c.normal_form_steps > 0
        assert c.max_coeff_bits > 0
        once = dataclasses.asdict(c)
        assert buchberger(gens, GREVLEX, budget, ring=R) == first
        # counts add up; the coefficient width is a maximum
        assert dataclasses.asdict(c) == {k: v if k == "max_coeff_bits" else 2 * v
                                         for k, v in once.items()}

    def test_max_coeff_bits_is_the_widest_inserted_coefficient(self):
        budget = Budget()
        buchberger([X * 12 - Y * 5, Y - 1], GREVLEX, budget, ring=R)
        # 12x - 5y and y - 1 are inserted as they are; the pair is coprime
        assert budget.counters.max_coeff_bits == (12).bit_length()
        buchberger([X * 2 - Y], GREVLEX, budget, ring=R)
        assert budget.counters.max_coeff_bits == 4  # a maximum over the budget's runs

    def test_coprime_pairs_are_never_reduced(self):
        # pairwise coprime leading monomials: every pair goes by the
        # product criterion and no S-polynomial is formed
        budget = Budget()
        basis = buchberger([X * X - 1, Y * Y - 2, Z ** 3 - Y], GREVLEX, budget, ring=R)
        assert len(basis) == 3
        assert budget.counters.s_pairs == 0
        assert budget.counters.dropped_coprime == 3

    def test_unit_ideal_stops_early(self):
        budget = Budget()
        basis = buchberger([X * Y - 1, X, Y * Z - Z], GREVLEX, budget, ring=R)
        assert basis.elements == (R.one,)


class TestSaturationModes:
    def test_principal_matches_iterated(self):
        cases = [
            Ideal(R2, [U * U * V, U * V * V - U * V]),
            Ideal(R2, [U * U - V * V]),
            Ideal(R2, [(U * V - 1) * (U - 1)]),
        ]
        for ideal in cases:
            for g in (U, V, U + V):
                left = saturate_principal(ideal, g)
                right = saturate(ideal, [g])
                assert equal_ideals(left, right), (ideal.generators, g)

    def test_multi_multiplier_saturation(self):
        # <u^2 v^2> has the primary components <u^2> and <v^2>, and neither
        # prime contains <u, v>, so saturating at <u, v> keeps them both;
        # saturating at u alone gives <v^2> and at v alone <u^2>
        ideal = Ideal(R2, [U * U * V * V])
        sat = saturate_principal(ideal, U, V)
        assert equal_ideals(sat.as_ideal(), saturate(ideal, [U, V]))
        left = saturate_principal(ideal, U)
        right = saturate_principal(ideal, V)
        assert equal_ideals(sat.as_ideal(), intersect(left.as_ideal(), right.as_ideal()))
        assert equal_ideals(sat.as_ideal(), ideal)

    def test_saturation_at_several_multipliers_matches_iterated(self):
        # 3, 4 and 2 multipliers, which take 2, 2 and 1 new variables t
        cases = [
            (Ideal(R, [X * X * Y, X * Z * Z - X * Z]), [X, Y, Z]),
            (Ideal(R, [X * Y * Z, X * X - X]), [X + Y, Y * Z, Z - 1, X * Z]),
            (Ideal(R2, [(U * V - 1) * U * U, V * V * V]), [U, V - 1]),
        ]
        for ideal, gens in cases:
            sat = saturate_principal(ideal, *gens)
            assert equal_ideals(sat.as_ideal(), saturate(ideal, gens)), (ideal.generators, gens)

    @pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
    def test_saturation_extends_the_basis_in_its_order(self, order):
        # from a reduced basis, the saturation is the reduced basis of the
        # iterated one in the same order
        for ideal in (Ideal(R2, [U * U * V, U * V * V - U * V]),
                      Ideal(R, [X * X * Y, X * Z * Z - X * Z]),
                      Ideal(R, [X * Y - Z, Y * Z - X, Z * X - Y])):
            ring = ideal.ring
            for g in ring.variable(ring.variables[0]), ring.variable(ring.variables[1]):
                sat = saturate_principal(buchberger(ideal, order), g)
                assert sat.order is order
                assert repr(sat) == repr(buchberger(saturate(ideal, [g]), order, ring=ring))

    def test_constant_multiplier_is_identity(self):
        ideal = Ideal(R2, [U * U - V])
        sat = saturate_principal(ideal, R2.constant(5))
        assert equal_ideals(sat, ideal)
        sat = saturate_principal(ideal, U, R2.constant(5))
        assert equal_ideals(sat.as_ideal(), ideal)

    def test_zero_multipliers_are_rejected(self):
        with pytest.raises(ValueError):
            saturate_principal(Ideal(R2, [U * V]), R2.zero)


class TestLimits:
    def test_time_limit_raises(self):
        gens = [X ** 3 * Y - Z * Z, Y ** 3 * Z - X, Z ** 3 * X - Y * Y]
        with pytest.raises(ResourceLimitExceeded) as info:
            buchberger(gens, LEX, ResourceLimits(max_seconds=0.0), ring=R)
        assert info.value.kind == "time"

    def test_degree_limit_raises(self):
        gens = [X ** 4 - Y, Y ** 4 - Z, Z ** 4 - X * Y]
        with pytest.raises(ResourceLimitExceeded) as info:
            buchberger(gens, LEX, ResourceLimits(max_degree=3), ring=R)
        assert info.value.kind == "degree"

    def test_limits_object_passthrough(self):
        budget = Budget(ResourceLimits(max_seconds=None))
        assert Budget.of(budget) is budget

    def test_exhausted_budget_is_not_a_math_failure(self):
        with pytest.raises(ResourceLimitExceeded):
            buchberger([X * Y - 1], GREVLEX, ResourceLimits(max_seconds=0.0), ring=R)
        # same input, sane budget: fine
        assert not buchberger([X * Y - 1], GREVLEX, ring=R).is_unit
