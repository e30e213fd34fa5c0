"""Polynomial arithmetic, monomial orders, and division."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repcount.groebner import Budget, ResourceLimitExceeded
from repcount.poly import (
    MAX_EXPONENT,
    DivisorTable,
    MonomialOrder,
    PolyRing,
    Polynomial,
    auxiliary,
    exact_divide,
    leading_term,
    matrix_entry,
    reduce,
)

from oracles import fraction_normal_form, make_monic, primitive_part

GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()
# elimination orders on the three variables of R3, with both inner schemes
BLOCK_GREVLEX = MonomialOrder.elimination((1,), 3)
BLOCK_LEX = MonomialOrder.elimination((0, 2), 3, inner="lex")


def small_ring(k=3):
    return PolyRing.ranked([auxiliary("t", i) for i in range(k)])


R3 = small_ring(3)
X, Y, Z = (R3.variable(v) for v in R3.variables)


def poly_strategy(ring, max_terms=5, max_exp=4, coeffs=None):
    nv = ring.nvars()
    mono = st.tuples(*([st.integers(0, max_exp)] * nv))
    if coeffs is None:
        coeffs = st.fractions(min_value=-5, max_value=5)
    coeff = coeffs.filter(lambda c: c != 0)
    term = st.tuples(mono, coeff)

    def build(terms):
        out = ring.zero
        for m, c in terms:
            out = out + Polynomial._raw(ring, {m: Fraction(1)}) * c
        return out

    return st.lists(term, max_size=max_terms).map(build)


class TestRing:
    def test_variable_positions_follow_ranking(self):
        v_aux = auxiliary("w", 0)
        v_mat = matrix_entry(1, 2, 1)
        ring = PolyRing.ranked([v_mat, v_aux])
        # auxiliaries rank above matrix entries, so they come first
        assert ring.variables[0] == v_aux
        assert ring.variables[1] == v_mat

    def test_matrix_entry_label(self):
        assert matrix_entry(1, 2, 3).label == "x[1,2,3]"

    def test_constant_and_zero(self):
        assert R3.constant(0) is R3.zero
        assert R3.constant(7).constant_value() == 7
        assert R3.zero.is_zero

    def test_fresh_auxiliary_skips_used_indices(self):
        ring = PolyRing.ranked([auxiliary("y", 0), auxiliary("y", 2)])
        assert ring.fresh_auxiliary("y") == auxiliary("y", 1)

    def test_extended_and_transfer_round_trip(self):
        w = R3.fresh_auxiliary("w")
        ext = R3.extended(w, top=True)
        f = X * X + Y * 2 + 1
        g = ext.transfer(f)
        assert g.ring is ext
        assert R3.transfer(g) == f

    def test_rings_built_twice_are_equal(self):
        a, b = small_ring(3), small_ring(3)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != small_ring(2)
        assert a != PolyRing(tuple(reversed(a.variables)))
        fa = a.variable(a.variables[0]) * 3 + 1
        fb = b.variable(b.variables[0]) * 3 + 1
        assert fa == fb and hash(fa) == hash(fb)
        other = PolyRing.ranked([auxiliary("s", i) for i in range(3)])
        assert Polynomial._raw(other, dict(fa.terms)) != fa

    def test_transfer_rejects_missing_variable(self):
        w = R3.fresh_auxiliary("w")
        ext = R3.extended(w)
        f = ext.variable(w) + 1
        with pytest.raises(ValueError):
            R3.transfer(f)


class TestArithmetic:
    def test_binomial_square(self):
        assert (X + Y) ** 2 == X * X + X * Y * 2 + Y * Y

    def test_scalar_mixing(self):
        f = X * Fraction(1, 2) + 1
        assert f * 2 - 2 == X
        assert 2 * f == X + 2
        assert 1 - f == -X * Fraction(1, 2)

    def test_pow_matches_repeated_product(self):
        f = X + Y * 2 + 1
        assert f ** 5 == f * f * f * f * f
        assert f ** 0 == R3.one

    def test_cross_ring_arithmetic_rejected(self):
        other = small_ring(2)
        with pytest.raises(ValueError):
            X + other.variable(other.variables[0])

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(R3), poly_strategy(R3), poly_strategy(R3))
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - g == f + (-g)
        assert f + R3.zero == f
        assert f * R3.one == f

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(R3), poly_strategy(R3))
    def test_hash_consistent_with_eq(self, f, g):
        if f == g:
            assert hash(f) == hash(g)
        assert hash(f) == hash(f + R3.zero)

    def test_degree_and_support(self):
        f = X * X * Y + Z
        assert f.total_degree() == 3
        assert f.support_positions() == {R3.position[R3.variables[0]],
                                         R3.position[R3.variables[1]],
                                         R3.position[R3.variables[2]]}


class TestOrders:
    def test_grevlex_versus_lex_classic(self):
        # f = x^2*y + x*y^2 + y^2 with x > y: both orders pick x^2*y,
        # but they disagree on x^3 versus x*y*z^2 style comparisons below.
        ring = small_ring(2)
        x, y = (ring.variable(v) for v in ring.variables)
        f = x * x * y + x * y * y + y * y
        assert leading_term(f, GREVLEX)[0] == leading_term(f, LEX)[0]

        g = x ** 4 + x * y * y * y
        assert leading_term(g, LEX)[0] == (4, 0)
        assert leading_term(g, GREVLEX)[0] == (4, 0)
        h = x ** 2 + x * y * y
        assert leading_term(h, LEX)[0] == (2, 0)
        assert leading_term(h, GREVLEX)[0] == (1, 2)  # higher total degree wins

    def test_grevlex_tie_break(self):
        # equal degree: grevlex prefers the monomial with the smaller
        # exponent on the least variable
        a = (2, 0, 1)  # t0^2 * t2
        b = (1, 2, 0)  # t0 * t1^2
        assert GREVLEX.key(b) > GREVLEX.key(a)

    def test_block_order_eliminates_first(self):
        order = MonomialOrder.elimination((0,), 3)
        # any power of t0 beats anything free of t0
        assert order.key((1, 0, 0)) > order.key((0, 9, 9))
        # within the t0-free block, grevlex applies
        assert order.key((0, 2, 1)) > order.key((0, 1, 1))

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
           st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
    def test_orders_are_total_and_multiplicative(self, a, b):
        for order in (GREVLEX, LEX, MonomialOrder.elimination((1,), 3)):
            ka, kb = order.key(a), order.key(b)
            assert (ka > kb) + (kb > ka) + (ka == kb) == 1
            shift = (1, 2, 0)
            sa = tuple(x + y for x, y in zip(a, shift))
            sb = tuple(x + y for x, y in zip(b, shift))
            if ka > kb:
                assert order.key(sa) > order.key(sb)


class TestDivision:
    def test_clo_division_example(self):
        # dividing x^2*y + x*y^2 + y^2 by (x*y - 1, y^2 - 1) under lex
        # leaves the classic remainder x + y + 1
        ring = small_ring(2)
        x, y = (ring.variable(v) for v in ring.variables)
        f = x * x * y + x * y * y + y * y
        table = DivisorTable([x * y - 1, y * y - 1], LEX)
        assert table.normal_form(f) == x + y + 1

    def test_normal_form_is_idempotent_and_linear(self):
        divisors = [X * X - Y, Y * Y - 1]
        table = DivisorTable(divisors, GREVLEX)
        f = (X + Y) ** 3 + Z
        r = table.normal_form(f)
        assert table.normal_form(r) == r
        g = X * Y - 2
        assert table.normal_form(f + g) == table.normal_form(table.normal_form(f) + table.normal_form(g))

    @settings(max_examples=40, deadline=None)
    @given(poly_strategy(R3, max_terms=4, max_exp=3))
    def test_difference_lies_in_ideal_witness(self, f):
        # f - NF(f) must be expressible in the divisors; we check the
        # weaker but fully reliable property NF(f - NF(f)) == 0
        table = DivisorTable([X * X - 1, Y - Z], GREVLEX)
        r = table.normal_form(f)
        assert table.normal_form(f - r).is_zero

    def test_reduce_wrapper(self):
        assert reduce(X * X, [X * X - Y], GREVLEX) == Y


    def test_exact_divide(self):
        f = (X + Y) * (X - Y)
        assert exact_divide(f, X + Y, GREVLEX) == X - Y
        with pytest.raises(ValueError):
            exact_divide(X * X + 1, X + Y, GREVLEX)

    def test_primitive_part_and_monic(self):
        f = X * Fraction(4, 6) + Fraction(2, 3)
        p = primitive_part(f, GREVLEX)
        assert p == X + 1
        g = X * 3 + 6
        assert make_monic(g, GREVLEX) == X + 2
        with pytest.raises(ValueError):
            leading_term(R3.zero, GREVLEX)

    def test_repr_mentions_labels(self):
        v = matrix_entry(1, 1, 1)
        ring = PolyRing.ranked([v])
        f = ring.variable(v) ** 2 - ring.variable(v)
        assert "x[1,1,1]" in repr(f)


class ExpiringBudget(Budget):
    """A budget whose deadline passes after its first `ticks` ticks."""

    def __init__(self, ticks):
        super().__init__()
        self.ticks = ticks

    def tick(self):
        self.ticks -= 1
        if self.ticks < 0:
            raise ResourceLimitExceeded("time")


# integral coefficients most of the time, so the int path runs, and
# fractions often enough that the exact fallback runs too
MIXED_COEFF = st.one_of(st.integers(-6, 6), st.fractions(min_value=-5, max_value=5,
                                                         max_denominator=7))


class TestDivisorTable:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(poly_strategy(R3, max_terms=4, max_exp=2, coeffs=MIXED_COEFF), max_size=4),
           poly_strategy(R3, max_terms=6, max_exp=4, coeffs=MIXED_COEFF),
           st.sampled_from([GREVLEX, LEX]))
    def test_grown_table_equals_table_built_at_once(self, divisors, f, order):
        grown = DivisorTable([], order)
        for g in divisors:
            grown.add(g)
        at_once = DivisorTable(divisors, order)
        assert grown.entries == at_once.entries
        assert grown.normal_form(f) == at_once.normal_form(f)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(poly_strategy(R3, max_terms=4, max_exp=2, coeffs=MIXED_COEFF),
                    min_size=1, max_size=4),
           poly_strategy(R3, max_terms=6, max_exp=4, coeffs=MIXED_COEFF),
           st.booleans(), st.sampled_from([GREVLEX, LEX, BLOCK_GREVLEX, BLOCK_LEX]))
    def test_normal_form_matches_fraction_reference(self, divisors, f, primitive, order):
        if primitive:  # integral divisors with leading coefficients other than 1
            divisors = [primitive_part(g, order) for g in divisors]
        r = DivisorTable(divisors, order).normal_form(f, Budget())
        assert r == fraction_normal_form(f, divisors, order)
        assert all(type(c) is Fraction for c in r.terms.values())

    @settings(max_examples=80, deadline=None)
    @given(st.lists(poly_strategy(R3, max_terms=4, max_exp=2, coeffs=MIXED_COEFF),
                    min_size=1, max_size=4),
           poly_strategy(R3, max_terms=6, max_exp=4, coeffs=MIXED_COEFF),
           st.booleans(), st.sampled_from([GREVLEX, LEX, BLOCK_GREVLEX, BLOCK_LEX]))
    def test_remainder_is_the_fraction_remainder(self, divisors, f, primitive, order):
        # non-monic divisors, integral or rational, make the fraction-free
        # reduction rescale; its remainder is still exact, with an int
        # wherever a coefficient is integral
        if primitive:
            divisors = [primitive_part(g, order) for g in divisors]
        table = DivisorTable(divisors, order, R3)
        expected = fraction_normal_form(f, divisors, order)
        terms = table.remainder(table.pack(f), Budget())
        assert table.polynomial(terms) == expected
        assert [type(c) for _, _, c in terms] == \
            [int if Fraction(c).denominator == 1 else Fraction for _, _, c in terms]
        multiple = table.pseudo_remainder(table.pack(f))
        assert all(type(c) is int for _, _, c in multiple)
        assert make_monic(table.polynomial(multiple), order) == make_monic(expected, order)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(poly_strategy(R3, max_terms=4, max_exp=2, coeffs=MIXED_COEFF),
                    min_size=1, max_size=5),
           st.lists(poly_strategy(R3, max_terms=6, max_exp=4, coeffs=MIXED_COEFF),
                    min_size=1, max_size=3),
           st.sampled_from([GREVLEX, LEX, BLOCK_GREVLEX, BLOCK_LEX]))
    def test_remembered_divisors_hold_as_the_table_grows(self, divisors, fs, order):
        # the first divisors and the misses a table remembers from earlier
        # reductions must give what a fresh table of the same entries gives
        grown = DivisorTable((), order, R3)
        for count, g in enumerate(divisors, 1):
            grown.add(g)
            fresh = DivisorTable(divisors[:count], order, R3)
            assert grown.entries == fresh.entries
            for f in fs:
                grown_budget, fresh_budget = Budget(), Budget()
                assert grown.remainder(grown.pack(f), grown_budget) == \
                    fresh.remainder(fresh.pack(f), fresh_budget)
                assert grown_budget.counters.normal_form_steps == \
                    fresh_budget.counters.normal_form_steps

    def test_a_rescaling_step_ticks_the_budget(self):
        # x^2 has coefficient 1, which the ~10^4-bit leading coefficient does
        # not divide, so the first step multiplies every pending term by it;
        # a budget that expires after that step's tick stops the rescaling
        divisors = [X * X * 3 ** 6300 - Y * Z]
        f = X * X + sum((Y ** i * Z ** j for i in range(3) for j in range(3 - i)), R3.zero)
        with pytest.raises(ResourceLimitExceeded) as info:
            DivisorTable(divisors, GREVLEX).normal_form(f, ExpiringBudget(1))
        assert info.value.kind == "time"
        assert "_rescale" in [entry.name for entry in info.traceback]
        assert DivisorTable(divisors, GREVLEX).normal_form(f, Budget()) == \
            fraction_normal_form(f, divisors, GREVLEX)

    def test_inexact_leading_coefficient_falls_back_to_fractions(self):
        table = DivisorTable([X * 2 - 3, Y * 3 + 1], GREVLEX)
        r = table.normal_form(X * Y * 5 + X * 4 + 7)
        # 5xy -> 15/2 y (inexact), 4x -> 6 (exact), 15/2 y -> -5/2 (inexact)
        assert r == R3.constant(Fraction(21, 2))
        assert all(type(c) is Fraction for c in r.terms.values())

    def test_budget_counts_the_steps(self):
        budget = Budget()
        DivisorTable([X - 1], GREVLEX).normal_form(X ** 3 + Y, budget)
        # x^3, x^2, x, y and 1: five terms taken off the heap
        assert budget.counters.normal_form_steps == 5

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(poly_strategy(R3, max_terms=4, max_exp=3, coeffs=MIXED_COEFF),
                              poly_strategy(R3, max_terms=4, max_exp=3, coeffs=MIXED_COEFF)),
                    max_size=4),
           st.lists(poly_strategy(R3, max_terms=3, max_exp=2, coeffs=MIXED_COEFF), max_size=3),
           st.sampled_from([GREVLEX, LEX, BLOCK_GREVLEX]))
    def test_product_is_the_normal_form_of_the_sum_of_products(self, pairs, divisors, order):
        # the cross terms share keys, on an empty table too
        table = DivisorTable(divisors, order, R3)
        budget = Budget()
        terms = table.product([(table.pack(a), table.pack(b)) for a, b in pairs], budget)
        total = sum((a * b for a, b in pairs), R3.zero)
        assert table.polynomial(terms) == table.normal_form(total)
        assert [k for k, _, _ in terms] == sorted({k for k, _, _ in terms})  # descending
        if not table.entries:
            assert budget.counters.normal_form_steps == 0

    def test_empty_table_sums_equal_keys(self):
        table = DivisorTable((), GREVLEX, R3)
        terms = table.pack(X * Y + 2) + table.pack(Z - X * Y) + table.pack(X * Y * 3 - 2)
        budget = Budget()
        assert table.polynomial(table.remainder(terms, budget)) == X * Y * 3 + Z
        assert len(table.remainder(terms)) == 2
        assert budget.counters.normal_form_steps == 0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_one_order_serves_rings_of_every_size(self, data):
        # the packing is cached on the order per variable count; interleaving
        # ring sizes on one order object must not mix them up
        order = MonomialOrder.grevlex()
        for k in data.draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=2, max_size=5)):
            ring = small_ring(k)
            divisors = data.draw(st.lists(poly_strategy(ring, max_terms=3, max_exp=2,
                                                        coeffs=MIXED_COEFF), max_size=3))
            f = data.draw(poly_strategy(ring, max_terms=5, max_exp=3, coeffs=MIXED_COEFF))
            r = DivisorTable(divisors, order).normal_form(f)
            assert r == fraction_normal_form(f, divisors, order)


R2 = small_ring(2)
U2, V2 = (R2.variable(v) for v in R2.variables)


class TestExponentLimit:
    """Packed exponents are exact up to MAX_EXPONENT; past it a reduction
    raises instead of returning a remainder."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 2 * MAX_EXPONENT)] * 3), min_size=2, max_size=2),
           st.sampled_from([GREVLEX, LEX, BLOCK_GREVLEX, BLOCK_LEX]))
    @example([(0, 0, 40001), (40000, 0, 0)], GREVLEX)
    def test_keys_are_the_order_on_sums_of_two_packable_monomials(self, monos, order):
        # a reduction step forms terms up to twice the limit before the
        # check on the heap, so their int keys must still be exact
        a, b = monos
        key = order.packing(3).key
        assert (key(a) < key(b)) == (order.key(a) > order.key(b))
        assert (key(a) == key(b)) == (a == b)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.integers(0, 3), st.sampled_from([MAX_EXPONENT - 1, MAX_EXPONENT]),
                           st.integers(0, MAX_EXPONENT)), min_size=n, max_size=n),
        min_size=2, max_size=2)))
    @example([[0, 3, MAX_EXPONENT], [1, 3, MAX_EXPONENT]])
    def test_packed_lcm_divisibility_and_coprimality_match_the_tuple_versions(self, monos):
        a, b = map(tuple, monos)
        packing = GREVLEX.packing(len(a))
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(packing.lcm(pa, pb)) == tuple(map(max, a, b))
        for (x, px), (y, py) in (((a, pa), (b, pb)), ((b, pb), (a, pa))):
            divides = all(e <= f for e, f in zip(x, y))
            assert packing.divides(px, py) == divides
            # the pair update scans only lcms no larger as ints
            assert px <= py or not divides
        coprime = not any(e and f for e, f in zip(a, b))
        assert (not packing.support(pa) & packing.support(pb)) == coprime

    @pytest.mark.parametrize("order", [LEX, MonomialOrder.elimination((0,), 2),
                                       MonomialOrder.elimination((0,), 2, inner="lex")])
    def test_reduction_up_to_the_limit_is_exact(self, order):
        u, v = U2, V2
        # u^2 v^767 -> u v^16767 -> v^32767 = v^MAX_EXPONENT
        table = DivisorTable([u - v ** 16000], order)
        assert table.normal_form(u * u * v ** 767 + u) == v ** MAX_EXPONENT + v ** 16000
        assert table.normal_form(v ** MAX_EXPONENT) == v ** MAX_EXPONENT

    @pytest.mark.parametrize("order", [LEX, MonomialOrder.elimination((0,), 2)])
    def test_reduction_past_the_limit_raises(self, order):
        u, v = U2, V2
        table = DivisorTable([u - v ** 16000], order)
        with pytest.raises(ResourceLimitExceeded) as info:
            table.normal_form(u * u * v ** 768)  # would reach v^32768
        assert info.value.kind == "degree"
        # here the first step forms v^35000, which raises when it is taken off the heap
        with pytest.raises(ResourceLimitExceeded):
            DivisorTable([u - v ** 30000], order).normal_form(u * v ** 5000)

    def test_inputs_past_the_limit_raise(self):
        u, v = U2, V2
        table = DivisorTable([u - 1], LEX)
        for f in (v ** (MAX_EXPONENT + 1), v ** 70000):
            with pytest.raises(ResourceLimitExceeded):
                table.normal_form(f)
        with pytest.raises(ResourceLimitExceeded):
            table.add(u ** (MAX_EXPONENT + 1) - v)
        assert table.normal_form(v ** MAX_EXPONENT + u) == v ** MAX_EXPONENT + 1

    def test_empty_table_rejects_products_past_the_limit(self):
        u, v = U2, V2
        table = DivisorTable((), LEX, R2)
        half = table.pack(v ** 20000)
        with pytest.raises(ResourceLimitExceeded) as info:
            table.product([(half, half)])  # v^40000
        assert info.value.kind == "degree"
        with pytest.raises(ResourceLimitExceeded):
            table.remainder(table.pack(u) + [(0, table.packing.guard, 1)])
        # a product term past the limit that cancels is never read
        assert table.product([(half, half), (half, table.pack(-v ** 20000 + u))]) == \
            table.pack(u * v ** 20000)

    def test_term_past_the_limit_that_cancels_is_never_read(self):
        # lex u > w > v: u v^15000 and w v^15000 both rewrite to v^35000, with
        # opposite signs, so the term past the limit cancels before it is
        # taken off the heap and the remainder stays exact
        ring = small_ring(3)
        u, w, v = (ring.variable(x) for x in ring.variables)
        table = DivisorTable([u - v ** 20000, w - v ** 20000], LEX)
        assert table.normal_form((u - w) * v ** 15000).is_zero
