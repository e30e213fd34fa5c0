"""Reference implementations that tests compare the package against."""

from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from repcount.count import FiniteDimAlgebra
from repcount.genmat import GenericMatrixSpace
from repcount.groebner import Budget, Ideal, buchberger, ideal_quotient, intersect
from repcount.matrices import Matrix
from repcount.poly import GREVLEX, MonomialOrder, PolyRing, Polynomial


def unit_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, (ring.one,))


def equal_ideals(a: Ideal, b: Ideal, order: MonomialOrder = GREVLEX, limits=None) -> bool:
    """Equality of ideals, by equality of their reduced Groebner bases."""
    budget = Budget.of(limits)
    return buchberger(a, order, budget) == buchberger(b, order, budget)


def eliminate(ideal: Ideal, drop: Iterable, limits=None, inner: str = "grevlex") -> Ideal:
    """Generators of (ideal intersect the subring without the dropped variables)."""
    budget = Budget.of(limits)
    ring = ideal.ring
    positions = sorted(ring.position[v] for v in set(drop))
    order = MonomialOrder.elimination(positions, ring.nvars(), inner)
    gb = buchberger(ideal, order, budget)
    pos_set = set(positions)
    kept = [g for g in gb.elements if not (g.support_positions() & pos_set)]
    return Ideal(ring, kept)


def all_words(s: int, max_len: int) -> list:
    """All words of length 0..max_len, sorted by length then lexicographically."""
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(product(range(s), repeat=length))
    return out


def word_matrix(space: GenericMatrixSpace, word: Sequence[int]) -> Matrix:
    """Ordered product of generic matrices; the empty word is the identity."""
    out = Matrix.identity(space.n, space.ring.one, space.ring.zero)
    for letter in word:
        out = out * space.matrices[letter]
    return out


def multiplication_matrix(algebra: FiniteDimAlgebra, i: int) -> tuple:
    """Matrix of multiplication by basis[i], rows indexed by target."""
    d = algebra.dimension
    rows = [[Fraction(0)] * d for _ in range(d)]
    for k in range(d):
        for l, c in algebra.structure[i][k].items():
            rows[l][k] = c
    return tuple(tuple(r) for r in rows)


def saturate(ideal: Ideal, multipliers: Sequence[Polynomial], limits=None) -> Ideal:
    """(ideal : <multipliers>^infinity), by a fixpoint of colon ideals.

    Iterates K <- intersection over g of (K : g) until the reduced basis
    stabilizes; each round multipliers are first reduced modulo K, and ones
    reducing to zero drop out (if all do, the saturation is the unit ideal).
    The package saturates with `saturate_principal`, one elimination per
    multiplier; this independent route is the oracle it is checked against.
    """
    budget = Budget.of(limits)
    if not multipliers:
        raise ValueError("empty multiplier set")
    ring = ideal.ring
    current_gb = buchberger(ideal, GREVLEX, budget)
    current = current_gb.as_ideal()
    while True:
        budget.tick()
        if current_gb.is_unit:
            return unit_ideal(ring)
        active = []
        seen = set()
        for g in multipliers:
            nf = current_gb.normal_form(g, budget)
            if nf.is_zero:
                continue
            if nf in seen or -nf in seen:
                continue
            seen.add(nf)
            active.append(nf)
        if not active:
            # every multiplier lies in the current ideal
            return unit_ideal(ring)
        step = None
        for g in active:
            q = ideal_quotient(current, g, budget)
            step = q if step is None else intersect(step, q, budget)
        step_gb = buchberger(step, GREVLEX, budget)
        if step_gb == current_gb:
            return Ideal(ring, current_gb.elements)
        current, current_gb = Ideal(ring, step_gb.elements), step_gb


def dense_fraction_rank(rows: Sequence[Sequence[Fraction]], limits=None) -> int:
    """Rank of a rational matrix by plain Gaussian elimination on dense
    Fraction rows; the reference for the fraction-free `matrix_rank`."""
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
