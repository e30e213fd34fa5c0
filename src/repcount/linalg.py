"""Exact echelon bookkeeping over Q for polynomial coordinate vectors.

Polynomials are treated as vectors over their monomial support.  The echelon
keeps, for every pivot row, its expression in terms of the original sequence
of inserted polynomials, so a new candidate either comes back as an exact
linear combination of the originals or is added as a new row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .groebner import Budget
from .poly import Polynomial


def _pivot_key(mono):
    return (sum(mono), mono)


class PolyEchelon:
    """Incremental row reduction with combination tracking.

    Indices are dense over the polynomials that were actually added (the
    independent ones); dependent candidates never consume an index, so the
    k-th added polynomial always has index k.  Combinations only ever
    reference added indices.
    """

    def __init__(self):
        self.rows = {}  # pivot monomial -> (terms dict, combo dict index -> Fraction)
        self.count = 0  # independent rows added so far

    def _eliminate(self, terms: dict, combo: dict):
        while True:
            hits = terms.keys() & self.rows.keys()
            if not hits:
                return terms, combo
            pivot = max(hits, key=_pivot_key)
            scale = terms[pivot]
            row_terms, row_combo = self.rows[pivot]
            for m, c in row_terms.items():
                acc = terms.get(m, 0) - scale * c
                if acc:
                    terms[m] = acc
                else:
                    terms.pop(m, None)
            for k, c in row_combo.items():
                acc = combo.get(k, 0) - scale * c
                if acc:
                    combo[k] = acc
                else:
                    combo.pop(k, None)

    def insert(self, f: Polynomial):
        """Insert f; returns ("dependent", combo) with f = sum combo[k] *
        added_k, or ("added", index) where index counts added rows."""
        index = self.count  # tentative; larger than every stored index
        terms = {m: Fraction(c) for m, c in f.terms.items()}
        combo = {index: Fraction(1)}
        terms, combo = self._eliminate(terms, combo)
        if not terms:
            # f - sum over combo of added rows = 0 (combo includes f itself)
            del combo[index]
            return "dependent", {k: -c for k, c in combo.items()}
        pivot = max(terms, key=_pivot_key)
        scale = terms[pivot]
        terms = {m: c / scale for m, c in terms.items()}
        combo = {k: c / scale for k, c in combo.items()}
        self.rows[pivot] = (terms, combo)
        self.count += 1
        return "added", index

    def express(self, f: Polynomial):
        """Write f in terms of the originals, or None if independent."""
        terms = {m: Fraction(c) for m, c in f.terms.items()}
        combo: dict = {}
        terms, combo = self._eliminate(terms, combo)
        if terms:
            return None
        return {k: -c for k, c in combo.items()}


def _primitive(row: dict) -> dict:
    """row divided by the gcd of its entries."""
    content = gcd(*row.values())
    return row if content == 1 else {k: c // content for k, c in row.items()}


def matrix_rank(rows: Sequence[Sequence[int | Fraction]], limits=None) -> int:
    """Rank of a rational matrix, computed fraction-free on sparse rows.

    Each row is multiplied by the lcm of its entries' denominators, which
    does not change the rank, and kept as a dict {column: int} of its
    nonzero entries.  Rows are reduced one after another against the pivot
    rows kept so far, leading column first, by row <- a*row - b*pivot with
    a/b the two leading entries in lowest terms; after every such operation
    the row is divided by its content (the gcd of its entries), so entries
    stay near the size of the minors they represent.  A row that reduces to
    zero adds nothing; any other becomes the pivot row of its leading column,
    and the rank is the number of pivot rows.  With limits, the budget is
    checked before each row operation.
    """
    budget = Budget.of(limits)
    pivots: dict = {}  # leading column -> primitive integer row
    for values in rows:
        row = {k: c for k, c in enumerate(values) if c}
        if not row:
            continue
        den = lcm(*(c.denominator for c in row.values()))
        row = _primitive({k: c.numerator * (den // c.denominator) for k, c in row.items()})
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            budget.tick()
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {k: a * c for k, c in row.items()}
            for k, c in pivot.items():
                acc = row.get(k, 0) - b * c
                if acc:
                    row[k] = acc
                else:
                    del row[k]
            if row:
                row = _primitive(row)
    return len(pivots)
