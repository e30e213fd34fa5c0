"""Reference implementations that tests compare the package against."""

import heapq
from fractions import Fraction
from itertools import chain, product
from math import gcd
from typing import Iterable, Sequence

from repcount.genmat import GenericMatrixSpace
from repcount.groebner import (
    Budget,
    GroebnerBasis,
    Ideal,
    ResourceLimits,
    buchberger,
    ideal_quotient,
    intersect,
)
from repcount.matrices import Matrix
from repcount.poly import (
    GREVLEX,
    DivisorTable,
    MonomialOrder,
    PolyRing,
    Polynomial,
    leading_term,
    monomial_div,
    monomial_divides,
)


def monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """S(f, g) = (lcm/lt(f)) f - (lcm/lt(g)) g, with lcm of the leading monomials."""
    lmf, lcf = leading_term(f, order)
    lmg, lcg = leading_term(g, order)
    lcm = monomial_lcm(lmf, lmg)
    left = f.scale_shift(1 / lcf, monomial_div(lcm, lmf))
    right = g.scale_shift(1 / lcg, monomial_div(lcm, lmg))
    return left - right


def primitive_part(f: Polynomial, order: MonomialOrder) -> Polynomial:
    """Integer-primitive scalar multiple of f with positive leading coefficient."""
    if f.is_zero:
        return f
    denom = 1
    for c in f.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    numer = 0
    for c in f.terms.values():
        numer = gcd(numer, c.numerator * (denom // c.denominator))
    scale = Fraction(denom, numer)
    _, lc = leading_term(f, order)
    if lc < 0:
        scale = -scale
    return f * scale


def make_monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    if f.is_zero:
        return f
    _, lc = leading_term(f, order)
    if lc == 1:
        return f
    return f * (1 / lc)


def fraction_normal_form(f: Polynomial, divisors: Sequence[Polynomial],
                         order: MonomialOrder) -> Polynomial:
    """The division rule of `DivisorTable`, in Fractions only: the largest
    pending term is rewritten against the first divisor whose leading
    monomial divides it, or else moved to the remainder."""
    leads = [(g, *leading_term(g, order)) for g in divisors if not g.is_zero]
    pending, out = dict(f.terms), {}
    while pending:
        m = max(pending, key=order.key)
        c = pending.pop(m)
        for g, lm, lc in leads:
            if monomial_divides(lm, m):
                scale = Fraction(c) / Fraction(lc)
                shift = monomial_div(m, lm)
                for tm, tc in g.terms.items():
                    if tm != lm:
                        m2 = tuple(a + b for a, b in zip(tm, shift))
                        pending[m2] = pending.get(m2, Fraction(0)) - scale * tc
                        if not pending[m2]:
                            del pending[m2]
                break
        else:
            out[m] = c
    return Polynomial(f.ring, out)


def buchberger_reference(ideal: Ideal | Sequence[Polynomial], order: MonomialOrder = GREVLEX,
                         limits: ResourceLimits | Budget | None = None,
                         ring: PolyRing | None = None) -> GroebnerBasis:
    """`buchberger` with the basis kept as Polynomials and the pair update on
    exponent tuples: the same pair selection by (lcm degree, sugar, lcm),
    the same Gebauer-Moeller criteria and the same S-pair reductions in the
    same `DivisorTable` kernel, so its reduced basis and its
    `EngineCounters` must equal the package's exactly."""
    budget = Budget.of(limits)
    counters = budget.counters
    if isinstance(ideal, Ideal):
        gens = list(ideal.generators)
        ring = ideal.ring
    else:
        gens = [g for g in ideal if not g.is_zero]
        if ring is None:
            ring = gens[0].ring
    if not gens:
        return GroebnerBasis(ring, order, ())

    basis: list = []
    lm: list = []
    sugars: list = []  # a generator's total degree; a remainder's, the sugar of its pair
    table = DivisorTable((), order)
    active: list = []  # indices of elements no later leading monomial divides
    pairs: list = []  # heap of (lcm degree, sugar, lcm key, i, j, lcm)

    def update(k: int) -> None:
        mk = lm[k]
        # (i, lcm, coprime): min is positive where both monomials have the variable
        new = [(i, monomial_lcm(lm[i], mk), not any(map(min, lm[i], mk))) for i in active]
        kept = []
        for index, (i, lcm, coprime) in enumerate(new):
            if coprime or not any(monomial_divides(other[1], lcm)
                                  for other in chain(new[index + 1:], kept)):
                kept.append((i, lcm, coprime))
            else:
                counters.dropped_mf += 1
        old = []
        for pair in pairs:
            i, j, lcm = pair[3:]
            if (monomial_divides(mk, lcm) and monomial_lcm(lm[i], mk) != lcm
                    and monomial_lcm(lm[j], mk) != lcm):
                counters.dropped_b += 1
            else:
                old.append(pair)
        for i, lcm, coprime in kept:
            if coprime:
                counters.dropped_coprime += 1
            else:
                sugar = sum(lcm) + max(sugars[i] - sum(lm[i]), sugars[k] - sum(mk))
                old.append((sum(lcm), sugar, order.key(lcm), i, k, lcm))
        heapq.heapify(old)
        pairs[:] = old
        active[:] = [i for i in active if not monomial_divides(mk, lm[i])] + [k]

    def insert(p: Polynomial, sugar: int) -> bool:
        p = primitive_part(p, order)
        budget.check_degree(p.total_degree())
        counters.max_coeff_bits = max(counters.max_coeff_bits,
                                      *(c.numerator.bit_length() for c in p.terms.values()))
        basis.append(p)
        lm.append(leading_term(p, order)[0])
        sugars.append(sugar)
        budget.check_basis(len(basis))
        table.add(p)
        update(len(basis) - 1)
        return p.is_constant

    for g in sorted(gens, key=lambda g: (g.total_degree(), len(g.terms))):
        r = table.normal_form(g, budget)
        if not r.is_zero and insert(r, g.total_degree()):
            return GroebnerBasis(ring, order, (ring.one,))

    while pairs:
        budget.tick()
        _, sugar, _, i, j, _ = heapq.heappop(pairs)
        counters.s_pairs += 1
        r = table.polynomial(table.s_pair(i, j, budget))
        if r.is_zero:
            counters.zero_reductions += 1
        elif insert(r, sugar):
            return GroebnerBasis(ring, order, (ring.one,))

    minimal = [basis[i] for i in active]
    reduced_table = DivisorTable((), order)
    reduced = []
    for g in sorted(minimal, key=lambda g: order.key(leading_term(g, order)[0])):
        budget.tick()
        r = make_monic(reduced_table.normal_form(g, budget), order)
        reduced_table.add(r)
        reduced.append(r)
    return GroebnerBasis(ring, order, reduced)


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


def standard_identity(m: int, args: Sequence[Matrix]) -> Matrix:
    """s_m(A_1..A_m): the signed sum of all m! orderings of the product, on
    Matrix entries (ints, Fractions or Polynomials).

    Computed by dynamic programming over subsets (sharing partial products
    across permutations) rather than literally summing m! products.  Repeated
    arguments make the result zero, since s_m alternates.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if len(args) != m:
        raise ValueError("expected %d matrices" % m)
    d = args[0].nrows
    if len(set(args)) != m:
        return Matrix.zeros(d)
    # acc[frozenset of used indices] -> signed sum over orderings of that subset
    acc = {frozenset(): Matrix.identity(d)}
    for _ in range(m):
        nxt: dict = {}
        for used, mat in acc.items():
            for k in range(m):
                if k in used:
                    continue
                # appending index k after the used set: the sign contribution
                # is (-1)^(number of remaining indices smaller than k)
                sign = (-1) ** sum(1 for r in range(k) if r not in used)
                term = mat * args[k] if sign > 0 else -(mat * args[k])
                key = used | {k}
                nxt[key] = term if key not in nxt else nxt[key] + term
        acc = nxt
    return acc[frozenset(range(m))]


def word_matrix(space: GenericMatrixSpace, word: Sequence[int]) -> Matrix:
    """Ordered product of generic matrices; the empty word is the identity."""
    out = Matrix.identity(space.n, space.ring.one, space.ring.zero)
    for letter in word:
        out = out * space.matrices[letter]
    return out


def multiplication_matrix(structure: Sequence[Sequence[dict]], i: int) -> tuple:
    """Matrix of multiplication by basis[i], rows indexed by target, from a
    structure table: basis[i] * basis[k] = sum_l structure[i][k][l] * basis[l]."""
    d = len(structure)
    rows = [[Fraction(0)] * d for _ in range(d)]
    for k in range(d):
        for l, c in structure[i][k].items():
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


def _pivot_key(mono):
    return (sum(mono), mono)


class FractionEchelon:
    """Incremental row reduction over Fractions on Polynomials, with
    combination tracking: the reference for the fraction-free
    `linalg.PolyEchelon` on packed terms.

    Rows are keyed by their pivot monomial, the largest by total degree and
    then exponent tuple.  Indices are dense over the polynomials that were
    actually added, as in the package's echelon, so both give the same
    statuses and the same (unique) combinations.
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
