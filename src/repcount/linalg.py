"""Exact echelon bookkeeping over Q for polynomial coordinate vectors.

Polynomials are treated as vectors over their monomial support.  The echelon
keeps, for every pivot row, its expression in terms of the original sequence
of inserted polynomials, so a new candidate either comes back as an exact
linear combination of the originals or is added as a new row.
"""

from __future__ import annotations

from fractions import Fraction
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


def matrix_rank(rows: Sequence[Sequence[Fraction]], limits=None) -> int:
    """Rank of a rational matrix by plain Gaussian elimination; with limits,
    the budget is checked before each row operation."""
    budget = Budget.of(limits)
    work = [list(map(Fraction, r)) for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(rank + 1, len(work)):
            if work[r][col]:
                budget.tick()
                scale = work[r][col] / lead
                for c in range(col, ncols):
                    work[r][c] -= scale * work[rank][c]
        rank += 1
        col += 1
    return rank
