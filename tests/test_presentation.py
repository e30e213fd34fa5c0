"""Parsing, formatting, and evaluation of presentations."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount.matrices import Matrix
from repcount.presentation import (
    FreeElement,
    Presentation,
    PresentationError,
    ZeroRelationWarning,
    format_element,
    format_presentation,
    parse_presentation,
)

from oracles import substitute

NAMES = ["a", "b", "c"]


def words(max_letters=3, max_len=4):
    return st.lists(st.integers(0, max_letters - 1), max_size=max_len).map(tuple)


def free_elements(max_letters=3):
    coeff = st.fractions(min_value=-4, max_value=4).filter(lambda c: c != 0)
    term = st.tuples(words(max_letters), coeff)

    def build(terms):
        out = FreeElement.zero()
        for w, c in terms:
            out = out + FreeElement.word(w) * c
        return out

    return st.lists(term, max_size=4).map(build)


class TestParsing:
    def test_basic(self):
        p = parse_presentation("generators: X Y\nrelation: X*Y - Y*X - 1\n")
        assert p.generators == ("X", "Y")
        assert len(p.relations) == 1
        rel = p.relations[0]
        assert rel.terms == {(0, 1): 1, (1, 0): -1, (): -1}

    def test_commas_and_comments_and_blank_lines(self):
        text = """
# a comment
generators: a, b   # trailing comment

relation: a*b - b*a
"""
        p = parse_presentation(text)
        assert p.num_generators == 2

    def test_rational_coefficients(self):
        p = parse_presentation("generators: X\nrelation: 2/3*X^2 - 1/3*X\n")
        assert p.relations[0].terms == {(0, 0): Fraction(2, 3), (0,): Fraction(-1, 3)}

    def test_powers_expand(self):
        p = parse_presentation("generators: X\nrelation: X^3 - X\n")
        assert p.relations[0].terms == {(0, 0, 0): 1, (0,): -1}

    def test_power_zero_is_one(self):
        with pytest.warns(ZeroRelationWarning):
            p = parse_presentation("generators: X\nrelation: X^0 - 1\n")
        assert not p.relations  # X^0 - 1 == 0, dropped with a warning

    def test_no_generators_line_fails(self):
        with pytest.raises(PresentationError) as info:
            parse_presentation("relation: 1\n")
        assert "generators" in str(info.value)

    def test_empty_generator_list_is_fine(self):
        p = parse_presentation("generators:\n")
        assert p.num_generators == 0

    def test_unknown_generator(self):
        with pytest.raises(PresentationError) as info:
            parse_presentation("generators: X\nrelation: X*Z\n")
        assert info.value.line == 2

    def test_zero_denominator(self):
        with pytest.raises(PresentationError):
            parse_presentation("generators: X\nrelation: 1/0*X\n")

    def test_repeated_exponent_rejected(self):
        with pytest.raises(PresentationError):
            parse_presentation("generators: X\nrelation: X^2^3\n")

    def test_stray_character_reports_column(self):
        with pytest.raises(PresentationError) as info:
            parse_presentation("generators: X\nrelation: X $ X\n")
        assert info.value.line == 2
        assert info.value.column is not None

    def test_duplicate_generator(self):
        with pytest.raises(PresentationError):
            parse_presentation("generators: X X\n")

    def test_zero_relation_warns_and_drops(self):
        with pytest.warns(ZeroRelationWarning):
            p = parse_presentation("generators: X\nrelation: X - X\n")
        assert p.relations == ()

    def test_nonzero_relations_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_presentation("generators: X\nrelation: X^2\n")


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a", "a"), ())

    def test_undeclared_letter_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a",), (FreeElement.word((0, 1)),))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(free_elements(), max_size=3))
    def test_format_then_parse(self, relations):
        relations = [r for r in relations if not r.is_zero]
        p = Presentation(tuple(NAMES), tuple(relations))
        again = parse_presentation(format_presentation(p))
        assert list(again.generators) == NAMES
        assert again.relations == p.relations

    def test_format_element_collapses_powers(self):
        e = FreeElement.word((0, 0, 1)) - FreeElement.word(()) * Fraction(1, 2)
        assert format_element(e, NAMES) == "a^2*b - 1/2"


class TestSubstitute:
    A = Matrix([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    B = Matrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    C = Matrix([[Fraction(3), Fraction(0)], [Fraction(1), Fraction(1)]])

    @settings(max_examples=50, deadline=None)
    @given(free_elements(), free_elements())
    def test_substitution_is_a_homomorphism(self, e1, e2):
        images = (self.A, self.B, self.C)
        assert substitute(e1 * e2, images) == substitute(e1, images) * substitute(e2, images)
        assert substitute(e1 + e2, images) == substitute(e1, images) + substitute(e2, images)

    def test_empty_word_is_identity(self):
        images = (self.A,)
        one = substitute(FreeElement.one(), images)
        assert one == Matrix.identity(2, Fraction(1), Fraction(0))

    def test_dim_needed_without_images(self):
        e = FreeElement.one() * 3
        m = substitute(e, (), dim=2)
        assert m == Matrix.identity(2) * 3
        with pytest.raises(ValueError):
            substitute(e, ())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            substitute(FreeElement.word((0, 1)), (self.A, Matrix([[1]])))


class TestFreeElementAlgebra:
    @settings(max_examples=50, deadline=None)
    @given(free_elements(), free_elements(), free_elements())
    def test_associative_distributive(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) - y == x

    def test_words_multiply_by_concatenation(self):
        assert FreeElement.word((0,)) * FreeElement.word((1, 1)) == FreeElement.word((0, 1, 1))

    def test_max_letter(self):
        assert (FreeElement.word((0, 2)) + FreeElement.word((1,))).max_letter() == 2
        assert FreeElement.one().max_letter() == -1
