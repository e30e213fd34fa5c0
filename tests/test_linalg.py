"""Linear algebra over Q: polynomial echelon forms and matrix rank."""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from repcount.groebner import Budget, ResourceLimitExceeded, ResourceLimits
from repcount.linalg import PolyEchelon, matrix_rank
from repcount.poly import PolyRing, Polynomial, auxiliary

from oracles import dense_fraction_rank

R = PolyRing.ranked([auxiliary("t", i) for i in range(3)])
X, Y, Z = (R.variable(v) for v in R.variables)


class TestEchelon:
    def test_detects_dependence_with_certificate(self):
        ech = PolyEchelon()
        assert ech.insert(X + Y) == ("added", 0)
        assert ech.insert(X - Y) == ("added", 1)
        status, combo = ech.insert(X * 2)
        assert status == "dependent"
        # 2x = 1*(x+y) + 1*(x-y)
        assert combo == {0: Fraction(1), 1: Fraction(1)}

    def test_zero_is_dependent_on_nothing(self):
        ech = PolyEchelon()
        status, combo = ech.insert(R.zero)
        assert status == "dependent"
        assert combo == {}

    def test_express(self):
        ech = PolyEchelon()
        ech.insert(X)
        ech.insert(Y + 1)
        combo = ech.express(X * 3 - Y - 1)
        assert combo == {0: Fraction(3), 1: Fraction(-1)}
        assert ech.express(Z) is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=6))
    def test_combo_reconstructs_input(self, rows):
        polys = [X * a + Y * b + Z * c for a, b, c in rows]
        ech = PolyEchelon()
        inserted = []
        for f in polys:
            status, data = ech.insert(f)
            if status == "added":
                inserted.append((data, f))
            else:
                rebuilt = R.zero
                for idx, coeff in data.items():
                    original = next(g for i, g in inserted if i == idx)
                    rebuilt = rebuilt + original * coeff
                assert rebuilt == f


class TestMatrixRank:
    def test_hand_cases(self):
        assert matrix_rank(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))) == 2
        assert matrix_rank(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))) == 1
        assert matrix_rank(((Fraction(0),),)) == 0
        assert matrix_rank(()) == 0

    def test_against_sympy(self):
        rng = random.Random(42)
        for _ in range(20):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            data = [[Fraction(rng.randrange(-3, 4)) for _ in range(cols)]
                    for _ in range(rows)]
            mine = matrix_rank(tuple(tuple(r) for r in data))
            theirs = sympy.Matrix(data).rank()
            assert mine == theirs

    def test_int_and_fraction_entries(self):
        assert matrix_rank(((2, 4), (1, 2))) == 1
        assert matrix_rank(((Fraction(1, 3), Fraction(1, 2)), (2, 3))) == 1
        assert matrix_rank(((Fraction(1, 3), Fraction(1, 2)), (2, 4))) == 2
        assert matrix_rank(((0, 0, 0), (0, 0, 5), (0, 7, 0))) == 2

    def test_entries_stay_within_the_minors(self, monkeypatch):
        # After reduction against i pivots a row is, up to its content, the
        # vector of (i+1)-minors of the rows it came from (Cramer), so once
        # the content is divided out every entry is at most the Hadamard
        # bound H of the matrix, and a row operation forms at most 2*H^2.
        # Every entry passes through gcd, which sees them all.
        rng = random.Random(5)
        n = 40
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        hadamard_bits = math.ceil(n * math.log2(9 * math.sqrt(n)))
        widest = []

        def spy(*args):
            widest.append(max(abs(a).bit_length() for a in args))
            return math.gcd(*args)

        monkeypatch.setattr("repcount.linalg.gcd", spy)
        assert matrix_rank(rows) == n
        assert max(widest) <= 2 * hadamard_bits + 1

    def test_budget_checked_per_row_operation(self):
        budget = Budget(ResourceLimits(max_seconds=1.0))
        budget.deadline = time.monotonic() - 1.0
        assert matrix_rank(((1, 2), (0, 3)), budget) == 2  # echelon already: no operation
        with pytest.raises(ResourceLimitExceeded):
            matrix_rank(((1, 2), (3, 4)), budget)


SMALL = st.integers(-3, 3)
WIDE = st.integers(-(2 ** 70), 2 ** 70)  # past 60 bits
RATIONAL = st.builds(Fraction, st.one_of(SMALL, WIDE), st.one_of(st.integers(1, 6),
                                                                 st.integers(1, 2 ** 64)))
ENTRY = st.one_of(SMALL, WIDE, RATIONAL)


@st.composite
def rational_matrices(draw):
    """Matrices of ints and Fractions, small and past 60 bits, with zero
    rows, duplicate rows and rational combinations of earlier rows mixed in,
    so that the rank is often below the size."""
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), max_size=5))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]),
                              max_size=4)):
        if kind == "zero" or not rows:
            rows.append([0] * cols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            p, q = draw(RATIONAL), draw(RATIONAL)
            rows.append([p * x + q * y for x, y in zip(a, b)])
    return tuple(tuple(r) for r in draw(st.permutations(rows)))


class TestFractionFreeRank:
    @settings(max_examples=200, deadline=None)
    @given(rational_matrices())
    def test_equals_the_dense_fraction_rank(self, rows):
        assert matrix_rank(rows) == dense_fraction_rank(rows)
