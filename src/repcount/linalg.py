"""Exact linear algebra over Q, fraction-free: `PolyEchelon`, the one
echelon of the package, on the packed terms of the reduction kernel, and
`matrix_rank`.  Both scale away denominators once, on input, and then work
on Python ints, dividing each row by its content after every step.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .groebner import Budget


def _integral(values: Iterable[tuple]) -> tuple:
    """(den, {key: int}): den, the lcm of the denominators of the (key,
    value) pairs, times each nonzero value."""
    values = [(k, c) for k, c in values if c]
    den = lcm(*(c.denominator for _, c in values))
    return den, {k: c.numerator * (den // c.denominator) for k, c in values}


class PolyEchelon:
    """Incremental row reduction with combination tracking.

    A polynomial comes in as the terms (order key, packed exponents,
    coefficient) of `poly.DivisorTable`, with distinct keys; only keys and
    coefficients are read.  A row is two int dicts, its terms {key: c} and
    its combination {index: c} of the added polynomials that sums to it;
    its pivot is its smallest key, the largest monomial.  A candidate is
    reduced pivot by pivot, smallest first, by row <- a*row - b*pivot_row
    with a/b the two pivot coefficients in lowest terms.  Indices are dense
    over the added (independent) polynomials: the k-th has index k.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> (terms {key: int}, combo {index: int})
        self.count = 0  # independent rows added so far

    def insert(self, terms: Iterable[tuple]):
        """Insert the polynomial with these terms; returns ("dependent",
        combo) with f = sum combo[k] * added_k, each combo[k] an int where
        it is integral and a Fraction otherwise, or ("added", index) where
        index counts added rows."""
        index = self.count  # tentative; larger than every stored index
        den, row = _integral((k, c) for k, _, c in terms)
        combo = {index: den}  # row = den * f
        rows = self.rows
        heap = list(row.keys() & rows.keys())
        heapify(heap)
        while heap:
            pivot = heappop(heap)
            b = row.get(pivot)
            if b is None:
                continue  # cancelled
            pivot_terms, pivot_combo = rows[pivot]
            for k in (pivot_terms.keys() - row.keys()) & rows.keys():
                heappush(heap, k)
            a = pivot_terms[pivot]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = _combine(a, row, b, pivot_terms)
            combo = _combine(a, combo, b, pivot_combo)
            content = gcd(*row.values(), *combo.values())
            if content != 1:
                row, combo = _divide(row, content), _divide(combo, content)
        if not row:
            # 0 = sum over combo of added rows (combo includes f itself)
            own = combo.pop(index)
            return "dependent", {k: -c // own if not c % own else Fraction(-c, own)
                                 for k, c in combo.items()}
        rows[min(row)] = (row, combo)
        self.count += 1
        return "added", index


def _combine(a: int, row: dict, b: int, other: dict) -> dict:
    """a*row - b*other without its zero entries; row itself when a is 1."""
    if a != 1:
        row = {k: a * c for k, c in row.items()}
    for k, c in other.items():
        acc = row.get(k, 0) - b * c
        if acc:
            row[k] = acc
        else:
            del row[k]
    return row


def _divide(row: dict, content: int) -> dict:
    return {k: c // content for k, c in row.items()}


def matrix_rank(rows: Sequence[Sequence[int | Fraction]], limits=None) -> int:
    """Rank of a rational matrix.  Each row, a dict {column: int} of its
    nonzero entries times the lcm of their denominators, is reduced against
    the pivot rows kept so far, leading column first, as in `PolyEchelon`,
    and divided by its content, which keeps the entries near the size of the
    minors they stand for; a row left nonzero becomes the pivot row of its
    leading column.  With limits, the budget is checked before each row
    operation.
    """
    budget = Budget.of(limits)
    pivots: dict = {}  # leading column -> primitive integer row
    for values in rows:
        _, row = _integral(enumerate(values))
        while row:
            content = gcd(*row.values())
            if content != 1:
                row = _divide(row, content)
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            budget.tick()
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            row = _combine(a // g, row, b // g, pivot)
    return len(pivots)
