"""Generic matrices, standard identities, trace generators, certificates.

The subset-DP standard identity and the necklace enumeration both get
brute-force oracles here (explicit permutation sums, explicit rotation
classes); everything downstream depends on these being right.
"""

import functools
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount import genmat
from repcount.decide import collapsed_certificate_values
from repcount.genmat import (
    CyclicWord,
    _necklaces,
    build_generic_space,
    certificate_words,
    certificates,
    length_bound,
    relations_ideal,
    trace_generators,
)
from repcount.groebner import Budget, buchberger
from repcount.matrices import Matrix, trace_of_product
from repcount.poly import GREVLEX, DivisorTable, MonomialOrder
from repcount.presentation import parse_presentation

from conftest import load
from oracles import all_words, standard_identity, word_matrix


def rational_matrix(rng, d):
    return Matrix([[Fraction(rng.randrange(-4, 5)) for _ in range(d)] for _ in range(d)])


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def standard_identity_oracle(mats):
    """Literal signed sum over all orderings."""
    m = len(mats)
    d = mats[0].nrows
    total = Matrix.zeros(d, Fraction(0))
    for perm in permutations(range(m)):
        prod = Matrix.identity(d, Fraction(1), Fraction(0))
        for k in perm:
            prod = prod * mats[k]
        total = total + prod if perm_sign(perm) > 0 else total - prod
    return total


class TestStandardIdentity:
    def test_s2_is_the_commutator(self):
        rng = random.Random(5)
        a, b = rational_matrix(rng, 3), rational_matrix(rng, 3)
        assert standard_identity(2, [a, b]) == a * b - b * a

    @pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
    def test_matches_permutation_sum(self, m, d):
        rng = random.Random(100 * m + d)
        for _ in range(3):
            mats = [rational_matrix(rng, d) for _ in range(m)]
            assert standard_identity(m, mats) == standard_identity_oracle(mats)

    def test_repeated_argument_vanishes(self):
        rng = random.Random(9)
        a = rational_matrix(rng, 2)
        b = rational_matrix(rng, 2)
        assert standard_identity(3, [a, b, a]).is_zero

    def test_amitsur_levitzki_s4_on_2x2(self):
        rng = random.Random(77)
        for _ in range(10):
            mats = [rational_matrix(rng, 2) for _ in range(4)]
            assert standard_identity(4, mats).is_zero

    @pytest.mark.parametrize("n", [2, 3])
    def test_certificate_alternates_in_every_slot(self, n):
        # tr(X0 * s_2k(X1..X2k)) = tr(s_2k+1(X0..X2k)) / (2k + 1), k = n - 1:
        # the certificate is alternating in all 2n - 1 slots, M0 included
        k = n - 1
        rng = random.Random(31 + n)
        for _ in range(5):
            xs = [Matrix([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)])
                  for _ in range(2 * k + 1)]
            value = trace_of_product(xs[0], standard_identity(2 * k, xs[1:]))
            assert value * (2 * k + 1) == standard_identity(2 * k + 1, xs).trace()
            swapped = [xs[1], xs[0]] + xs[2:]
            assert trace_of_product(swapped[0], standard_identity(2 * k, swapped[1:])) == -value
            assert value != 0

    def test_s3_not_an_identity_on_2x2(self):
        e11 = Matrix([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
        e12 = Matrix([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
        e21 = Matrix([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]])
        assert not standard_identity(3, [e11, e12, e21]).is_zero

    def test_on_generic_matrices(self):
        # s_2 of two generic 2x2 matrices has the commutator's entries
        space = build_generic_space(2, 2)
        a, b = space.matrices
        assert standard_identity(2, [a, b]) == a * b - b * a

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            standard_identity(0, [])
        with pytest.raises(ValueError):
            standard_identity(2, [Matrix.identity(2)])


def packed(table, matrix):
    return [[table.pack(e) for e in row] for row in matrix.rows]


class TestPackedStandardPolynomial:
    @pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
    def test_matches_the_oracle_on_generic_matrices(self, m, d):
        # s_4 vanishes on 2 x 2 matrices (Amitsur-Levitzki), the others do not
        space = build_generic_space(d, m)
        table = DivisorTable((), GREVLEX, space.ring)
        args = [packed(table, a) for a in space.matrices]
        got = genmat._standard_polynomial(table, args, Budget())
        expected = standard_identity(m, list(space.matrices))
        assert [[table.polynomial(e) for e in row] for row in got] == \
            [list(row) for row in expected.rows]
        assert expected.is_zero == (m == 4 and d == 2)

    def test_reduced_entries_are_the_normal_forms(self):
        # every partial product is reduced, which gives the normal forms of
        # the unreduced s_3, Fraction coefficients included
        space = build_generic_space(2, 3)
        p = parse_presentation("generators: X, Y, Z\nrelation: X*Y - 2/3*Z\n")
        basis = buchberger(relations_ideal(p, space), GREVLEX)
        args = [packed(basis.table, a) for a in space.matrices]
        got = genmat._standard_polynomial(basis.table, args, Budget())
        expected = standard_identity(3, list(space.matrices))
        assert [[basis.table.polynomial(e) for e in row] for row in got] == \
            [[basis.normal_form(e) for e in row] for row in expected.rows]


class TestLengthBound:
    def test_known_values(self):
        assert length_bound(2) == 4
        assert length_bound(3) == 8

    def test_against_float_formula(self):
        for n in range(2, 40):
            target = n * (2 * n * n / (n - 1) + 0.25) ** 0.5 + n / 2 - 2
            expect = int(target)
            if expect == target:  # boundary: strictly below
                expect -= 1
            assert length_bound(n) == expect, n

    def test_needs_n_at_least_2(self):
        with pytest.raises(ValueError):
            length_bound(1)


class TestSpace:
    def test_variable_count_and_labels(self):
        space = build_generic_space(2, 3)
        assert space.ring.nvars() == 12
        labels = {v.label for v in space.ring.variables}
        assert "x[1,2,3]" in labels
        assert space.matrices[0][0, 1] == space.ring.variable(space.ring.variables[1])

    def test_word_matrix(self):
        space = build_generic_space(2, 2)
        a, b = space.matrices
        assert word_matrix(space, (0, 1, 0)) == a * b * a
        assert word_matrix(space, ()) == Matrix.identity(2, space.ring.one, space.ring.zero)

    def test_relations_ideal_commutator(self):
        p = parse_presentation("generators: X, Y\nrelation: X*Y - Y*X\n")
        space = build_generic_space(2, 2)
        ideal = relations_ideal(p, space)
        a, b = space.matrices
        comm = a * b - b * a
        expected = {comm[i, j] for i in range(2) for j in range(2)}
        assert set(ideal.generators) == expected

    def test_relations_ideal_no_generators(self):
        p = parse_presentation("generators:\nrelation: 1\n")
        space = build_generic_space(2, 0)
        ideal = relations_ideal(p, space)
        assert len(ideal.generators) == 2  # both diagonal entries of 1*I
        assert all(g.is_constant for g in ideal.generators)

    def test_generator_count_mismatch(self):
        p = parse_presentation("generators: X\n")
        with pytest.raises(ValueError):
            relations_ideal(p, build_generic_space(2, 2))


def necklace_oracle(s, max_len):
    classes = set()
    for length in range(1, max_len + 1):
        for w in product(range(s), repeat=length):
            classes.add(frozenset(w[k:] + w[:k] for k in range(length)))
    return len(classes)


class TestTraceGenerators:
    def test_count_matches_rotation_classes(self):
        for s, max_len in [(1, 4), (2, 4), (3, 3), (2, 6)]:
            assert len(_necklaces(s, max_len)) == necklace_oracle(s, max_len)

    def test_fifteen_for_two_letters_up_to_four(self):
        space = build_generic_space(2, 2)
        gens = trace_generators(space)
        assert len(gens) == 15
        assert gens[0].render() == "tr(x1)"
        assert [tg.word.letters for tg in gens[:5]] == [(0,), (1,), (0, 0), (0, 1), (1, 1)]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=5))
    def test_trace_is_rotation_invariant(self, letters):
        space = build_generic_space(2, 2)
        w = tuple(letters)
        base = word_matrix(space, w).trace()
        for k in range(len(w)):
            rot = w[k:] + w[:k]
            assert word_matrix(space, rot).trace() == base

    def test_cyclic_word_minimal_rotation(self):
        assert CyclicWord.of((1, 0, 1)).letters == (0, 1, 1)
        assert CyclicWord.of((1, 1, 0)).letters == (0, 1, 1)

    def test_render(self):
        assert CyclicWord.of((0, 0, 1)).render() == "x1^2*x2"
        assert CyclicWord.of((0,)).render() == "x1"

    def test_no_generators_no_traces(self):
        assert trace_generators(build_generic_space(2, 0)) == ()

    @pytest.mark.parametrize("n, s", [(3, 1), (2, 2), (2, 3)])
    def test_prefix_products_match_word_matrices(self, n, s, monkeypatch):
        # each necklace's matrix extends a shared prefix's: one product per
        # distinct nonempty prefix (9 for x..x^9 at n = 3, not 45), and the
        # traces equal those of matrices built from the identity
        space = build_generic_space(n, s)
        calls = []
        original = genmat._product_sum

        def counting_product_sum(table, pairs, budget):
            calls.append(len(pairs))
            return original(table, pairs, budget)

        monkeypatch.setattr(genmat, "_product_sum", counting_product_sum)
        gens = trace_generators(space)
        monkeypatch.setattr(genmat, "_product_sum", original)
        assert set(calls) == {1}  # one matrix product per call
        words = [tg.word.letters for tg in gens]
        assert words == [cw.letters for cw in _necklaces(s, n * n)]
        assert len(calls) == len({w[:k] for w in words for k in range(1, len(w) + 1)})
        if s == 1:
            assert len(calls) == n * n
        for tg in gens:
            assert tg.value == word_matrix(space, tg.word.letters).trace()


class TestCertificates:
    def test_all_words(self):
        assert all_words(2, 2) == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_single_generator_yields_nothing(self):
        # powers of one matrix commute, so every alternating product dies
        space = build_generic_space(2, 1)
        assert list(certificates(space, all_words(1, 3))) == []

    def test_short_words_all_die_by_cyclicity(self):
        # tr(M0 * [x1, x2]) = 0 whenever M0 is 1, x1 or x2: the two products
        # are cyclic rotations of each other.  So max_len = 1 gives nothing.
        space = build_generic_space(2, 2)
        assert list(certificates(space, all_words(2, 1))) == []
        a, b = space.matrices
        comm = a * b - b * a
        for m0 in (Matrix.identity(2, space.ring.one, space.ring.zero), a, b):
            assert trace_of_product(m0, comm).is_zero

    def test_two_generators_matches_brute_force(self):
        space = build_generic_space(2, 2)
        words = all_words(2, 2)
        full = full_certificate_loop(space, words)
        assert check_one_per_word_set(full, words, list(certificates(space, words))) > 0

    def test_members_record_provenance(self):
        space = build_generic_space(2, 2)
        for words, poly in certificates(space, all_words(2, 2)):
            m0, rest = words[0], words[1:]
            direct = trace_of_product(word_matrix(space, m0),
                                      standard_identity(len(rest),
                                                        [word_matrix(space, w) for w in rest]))
            assert poly == direct

    def test_reduce_gives_normal_forms(self):
        # reducing every partial product gives the normal forms of the
        # unreduced certificates, minus those that reduce to zero
        space = build_generic_space(2, 2)
        p = parse_presentation("generators: X, Y\nrelation: X*Y + Y*X\n")
        basis = buchberger(relations_ideal(p, space), MonomialOrder.grevlex())
        words = certificate_words(2, 4, 2)
        expected = [(w, basis.normal_form(v)) for w, v in certificates(space, words)]
        got = list(certificates(space, words, basis.table))
        assert got == [(w, v) for w, v in expected if not v.is_zero]
        assert 0 < len(got) < len(expected)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["fraction_plane", "fraction_cubic", "free2", "s3"]),
           st.lists(st.lists(st.integers(0, 1), max_size=4).map(tuple), min_size=2, max_size=5,
                    unique=True))
    def test_values_match_the_oracle_route(self, name, words):
        # the packed products against standard_identity and trace_of_product
        # on Polynomial matrices, reduced only at the end; free2 reduces
        # against an empty table, the fraction cases against bases with
        # Fraction coefficients (every value of XY - 4/5 YX reduces to 0)
        space, basis = reduced_space(name)
        full = full_certificate_loop(space, words, basis)
        check_one_per_word_set(full, words, list(certificates(space, words, basis.table)))

    @pytest.mark.parametrize("name", ["fraction_plane", "fraction_cubic", "free2", "s3"])
    def test_collapse_matches_the_full_loop(self, name):
        # the values of the loop over every M0, deduplicated up to sign in
        # order of first appearance, are the collapse's values as a list
        space, basis = reduced_space(name)
        words = certificate_words(2, length_bound(2), 2)
        expected = []
        for _, value in full_certificate_loop(space, words, basis):
            if not value.is_zero and value not in expected and -value not in expected:
                expected.append(value)
        values, candidates = collapsed_certificate_values(space, basis, length_bound(2))
        assert values == expected
        assert candidates == len(words) * comb(len(words), 2) == 147

    @pytest.mark.parametrize("name", ["fraction_plane", "fraction_cubic", "free2", "s3"])
    def test_trace_generators_match_the_oracle_route(self, name):
        space, basis = reduced_space(name)
        gens = trace_generators(space, basis.table)
        assert [tg.value for tg in gens] == \
            [basis.normal_form(word_matrix(space, tg.word.letters).trace()) for tg in gens]
        assert any(not tg.value.is_zero for tg in gens)

    def test_needs_dimension_two(self):
        with pytest.raises(ValueError):
            next(certificates(build_generic_space(1, 1), all_words(1, 2)))


PRESENTATIONS = {
    "fraction_plane": "generators: X, Y\nrelation: X*Y - 4/5*Y*X\n",
    "fraction_cubic": "generators: X, Y\nrelation: X*Y*X - 2/3*Y\n",
}


@functools.lru_cache(maxsize=None)
def reduced_space(name):
    """The n = 2 space and relations basis of a two-generator presentation."""
    p = parse_presentation(PRESENTATIONS[name]) if name in PRESENTATIONS else load(name)
    space = build_generic_space(2, 2)
    return space, buchberger(relations_ideal(p, space), GREVLEX)


def full_certificate_loop(space, words, basis=None):
    """Every candidate ((M0, M1, M2), value) at n = 2, in the order
    `for rest in combinations(words, 2): for m0 in words`, zeros included,
    on Polynomial matrices and reduced modulo `basis` only at the end."""
    out = []
    for rest in combinations(words, 2):
        alt = standard_identity(2, [word_matrix(space, w) for w in rest])
        for m0 in words:
            value = trace_of_product(word_matrix(space, m0), alt)
            out.append(((m0,) + rest, value if basis is None else basis.normal_form(value)))
    return out


def check_one_per_word_set(full, words, got):
    """`got` is the nonzero candidates of `full` whose M0 comes after M2 in
    `words`, in the same order, and every other candidate is 0 or + or - the
    one of its word set; returns the number yielded."""
    position = {w: i for i, w in enumerate(words)}
    assert got == [(slots, value) for slots, value in full
                   if position[slots[0]] > position[slots[-1]] and not value.is_zero]
    by_set = {frozenset(slots): value for slots, value in got}
    for slots, value in full:
        if not value.is_zero:
            assert len(set(slots)) == 3
            assert value in (by_set[frozenset(slots)], -by_set[frozenset(slots)])
    return len(got)


def has_power_factor(word, n):
    """Brute force: some factor of word equals u^n for a nonempty u."""
    for start in range(len(word)):
        for period in range(1, (len(word) - start) // n + 1):
            u = word[start:start + period]
            if word[start:start + n * period] == u * n:
                return True
    return False


class TestCertificateWords:
    def test_counts(self):
        assert certificate_words(2, 4, 2) == [(), (0,), (1,), (0, 1), (1, 0),
                                              (0, 1, 0), (1, 0, 1)]
        assert certificate_words(1, 8, 3) == [(), (0,), (0, 0)]

    def test_prefix_closed(self):
        for s, max_len, n in ((2, 6, 2), (3, 5, 2), (2, 8, 3)):
            words = set(certificate_words(s, max_len, n))
            assert all(w[:-1] in words for w in words if w)

    def test_matches_brute_force_filter(self):
        # same words in the same order as filtering the full enumeration
        for s in range(1, 4):
            for max_len in range(0, 7):
                for n in (2, 3):
                    expected = [w for w in all_words(s, max_len)
                                if not has_power_factor(w, n)]
                    assert certificate_words(s, max_len, n) == expected, (s, max_len, n)
