"""Buchberger's algorithm and the ideal operations built on it.

Everything here is exact and deterministic: for a fixed monomial order the
reduced Groebner basis returned by `buchberger` is unique whatever the
generator order, and elimination / intersection / quotient / saturation are
all phrased in terms of it.  Resource limits (wall clock, degree cap, basis
size cap) raise `ResourceLimitExceeded`, a distinct failure mode meaning
"ran out of budget", never "wrong answer".

`buchberger` keeps one divisor table for the whole run, prunes pairs with
the Gebauer-Moeller update (Gebauer and Moeller, J. Symbolic Comput. 6
(1988); the UPDATE procedure of Becker and Weispfenning, "Groebner Bases",
1993) and tail-reduces the final basis in one pass.  Each `Budget` counts
the work it has paid for in `EngineCounters`.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .poly import (
    DivisorTable,
    MonomialOrder,
    GREVLEX,
    PolyRing,
    Polynomial,
    exact_divide,
    leading_term,
    make_monic,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    primitive_part,
)
# unused here, but bench/tracing.py wraps `poly.reduce` in every module that
# binds it, and its self-test checks this binding
from .poly import reduce as poly_reduce  # noqa: F401


class ResourceLimitExceeded(Exception):
    """A computation hit a configured budget; the run is inconclusive."""

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        self.detail = detail
        super().__init__("%s limit exceeded%s" % (kind, (": " + detail) if detail else ""))


@dataclass(frozen=True)
class ResourceLimits:
    """Caps shared by a whole run; None disables the corresponding check."""

    max_seconds: float | None = None
    max_degree: int | None = None
    max_basis: int | None = None


@dataclass
class EngineCounters:
    """Work done under one budget by `buchberger` and `DivisorTable.normal_form`.

    A pair is dropped unreduced by one of the Gebauer-Moeller criteria:
    coprime leading monomials (Buchberger's product criterion), a new pair
    whose lcm is a multiple of another new pair's (criteria M and F), or an
    old pair whose lcm the new leading monomial divides strictly (criterion B).
    """

    s_pairs: int = 0  # S-polynomials reduced
    zero_reductions: int = 0  # of those, reduced to zero
    dropped_coprime: int = 0
    dropped_mf: int = 0
    dropped_b: int = 0
    normal_form_steps: int = 0  # terms taken off the heap in normal_form


class Budget:
    """Deadline-based view of ResourceLimits, shared across pipeline stages,
    and the engine counters of the work done under it."""

    __slots__ = ("deadline", "max_degree", "max_basis", "counters")

    def __init__(self, limits: ResourceLimits | None = None):
        limits = limits or ResourceLimits()
        self.deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds
        self.max_degree = limits.max_degree
        self.max_basis = limits.max_basis
        self.counters = EngineCounters()

    @staticmethod
    def of(limits) -> "Budget":
        if isinstance(limits, Budget):
            return limits
        return Budget(limits)

    def tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitExceeded("time")

    def check_degree(self, degree: int) -> None:
        if self.max_degree is not None and degree > self.max_degree:
            raise ResourceLimitExceeded("degree", "polynomial of degree %d" % degree)

    def check_basis(self, size: int) -> None:
        if self.max_basis is not None and size > self.max_basis:
            raise ResourceLimitExceeded("basis", "%d elements" % size)


class Ideal:
    """A finitely generated ideal; the zero ideal has no generators."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial] = ()):
        gens = []
        for g in generators:
            if g.ring is not ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def __repr__(self) -> str:
        if not self.generators:
            return "Ideal(0)"
        return "Ideal(%s)" % ", ".join(repr(g) for g in self.generators)


def unit_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, (ring.one,))


class GroebnerBasis:
    """A reduced Groebner basis: monic, tail-reduced, sorted by leading term."""

    __slots__ = ("ring", "order", "elements", "_table")

    def __init__(self, ring: PolyRing, order: MonomialOrder, elements: Sequence[Polynomial]):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self._table = None

    @property
    def table(self) -> DivisorTable:
        if self._table is None:
            self._table = DivisorTable(self.elements, self.order)
        return self._table

    @property
    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant

    @property
    def is_trivial(self) -> bool:
        return not self.elements

    def normal_form(self, f: Polynomial, budget: Budget | None = None) -> Polynomial:
        return self.table.normal_form(f, budget)

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        return self.normal_form(f, budget).is_zero

    def max_degree(self) -> int:
        return max((g.total_degree() for g in self.elements), default=0)

    def as_ideal(self) -> Ideal:
        return Ideal(self.ring, self.elements)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.ring == other.ring and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "GroebnerBasis[%s]" % ", ".join(repr(g) for g in self.elements)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """S(f, g) = (lcm/lt(f)) f - (lcm/lt(g)) g, with lcm of the leading monomials."""
    lmf, lcf = leading_term(f, order)
    lmg, lcg = leading_term(g, order)
    lcm = monomial_lcm(lmf, lmg)
    left = f.scale_shift(1 / lcf, monomial_div(lcm, lmf))
    right = g.scale_shift(1 / lcg, monomial_div(lcm, lmg))
    return left - right


def _interreduce(elements: list, order: MonomialOrder, budget: Budget) -> list:
    """The reduced basis, sorted, from a minimal one (no leading monomial
    divides another).

    One pass in ascending order of leading monomials: each element is
    reduced against the smaller ones, already reduced.  That is enough, since
    every tail term lies below its own leading monomial, so no larger
    leading monomial divides it.
    """
    table = DivisorTable((), order)
    reduced = []
    for g in sorted(elements, key=lambda g: order.key(leading_term(g, order)[0])):
        budget.tick()
        r = make_monic(table.normal_form(g, budget), order)
        table.add(r)
        reduced.append(r)
    return reduced


def buchberger(ideal: Ideal | Sequence[Polynomial], order: MonomialOrder = GREVLEX,
               limits: ResourceLimits | Budget | None = None,
               ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal, unique for the given order.

    Pair selection follows the normal strategy (smallest lcm degree first).
    Every new element is reduced against one divisor table holding all
    earlier ones and updates the pair set by Gebauer-Moeller: pairs are
    formed only with the elements no later leading monomial divides, new
    pairs with coprime leading monomials or with an lcm that is a multiple
    of another new pair's are dropped, and so are the old pairs whose lcm
    the new leading monomial divides strictly (the counts are kept in
    `budget.counters`).  A constant element ends the run with the unit ideal.
    """
    budget = Budget.of(limits)
    counters = budget.counters
    if isinstance(ideal, Ideal):
        gens = list(ideal.generators)
        ring = ideal.ring
    else:
        gens = [g for g in ideal if not g.is_zero]
        if ring is None:
            if not gens:
                raise ValueError("cannot infer the ring of an empty generator list")
            ring = gens[0].ring
    if not gens:
        return GroebnerBasis(ring, order, ())

    basis: list[Polynomial] = []
    lm: list = []
    table = DivisorTable((), order)
    active: list = []  # indices of elements no later leading monomial divides
    pairs: list = []  # heap of (lcm degree, lcm key, i, j, lcm)

    def update(k: int) -> None:
        mk = lm[k]
        # (i, lcm, coprime): min is positive where both monomials have the variable
        new = [(i, monomial_lcm(lm[i], mk), not any(map(min, lm[i], mk))) for i in active]
        kept = []  # Becker-Weispfenning's D
        for index, (i, lcm, coprime) in enumerate(new):
            if coprime or not any(monomial_divides(other[1], lcm)
                                  for other in chain(new[index + 1:], kept)):
                kept.append((i, lcm, coprime))
            else:
                counters.dropped_mf += 1
        old = []
        for pair in pairs:
            _, _, i, j, lcm = pair
            if (monomial_divides(mk, lcm) and monomial_lcm(lm[i], mk) != lcm
                    and monomial_lcm(lm[j], mk) != lcm):
                counters.dropped_b += 1
            else:
                old.append(pair)
        for i, lcm, coprime in kept:
            if coprime:
                counters.dropped_coprime += 1
            else:
                old.append((sum(lcm), order.key(lcm), i, k, lcm))
        heapq.heapify(old)
        pairs[:] = old
        active[:] = [i for i in active if not monomial_divides(mk, lm[i])] + [k]

    def insert(p: Polynomial) -> bool:
        """Add p; True when it is a constant, so the ideal is the unit ideal."""
        p = primitive_part(p, order)
        budget.check_degree(p.total_degree())
        basis.append(p)
        lm.append(leading_term(p, order)[0])
        budget.check_basis(len(basis))
        table.add(p)
        update(len(basis) - 1)
        return p.is_constant

    for g in sorted(gens, key=lambda g: (g.total_degree(), len(g.terms))):
        r = table.normal_form(g, budget)
        if not r.is_zero and insert(r):
            return GroebnerBasis(ring, order, (ring.one,))

    while pairs:
        budget.tick()
        _, _, i, j, _ = heapq.heappop(pairs)
        counters.s_pairs += 1
        r = table.normal_form(s_polynomial(basis[i], basis[j], order), budget)
        if r.is_zero:
            counters.zero_reductions += 1
        elif insert(r):
            return GroebnerBasis(ring, order, (ring.one,))

    return GroebnerBasis(ring, order, _interreduce([basis[i] for i in active], order, budget))


def contains(basis: GroebnerBasis, f: Polynomial, limits=None) -> bool:
    """Ideal membership: does f reduce to zero against the basis?"""
    return basis.normal_form(f, Budget.of(limits)).is_zero


def equal_ideals(a: Ideal, b: Ideal, order: MonomialOrder = GREVLEX, limits=None) -> bool:
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


def intersect(a: Ideal, b: Ideal, limits=None) -> Ideal:
    """a ∩ b via the usual trick: eliminate w from w*a + (1-w)*b."""
    budget = Budget.of(limits)
    ring = a.ring
    if b.ring is not ring:
        raise ValueError("ideals from different rings")
    if a.is_zero_ideal() or b.is_zero_ideal():
        return Ideal(ring)
    if any(g.is_constant for g in a.generators):
        return _canonical(b, budget)
    if any(g.is_constant for g in b.generators):
        return _canonical(a, budget)
    w = ring.fresh_auxiliary("_w")
    ext = ring.extended(w, top=True)
    wp = ext.variable(w)
    gens = [wp * ext.transfer(g) for g in a.generators]
    gens += [(ext.one - wp) * ext.transfer(g) for g in b.generators]
    order = MonomialOrder.elimination((ext.position[w],), ext.nvars())
    gb = buchberger(gens, order, budget, ring=ext)
    wpos = ext.position[w]
    kept = [ring.transfer(g) for g in gb.elements if wpos not in g.support_positions()]
    return Ideal(ring, kept)


def _canonical(ideal: Ideal, budget: Budget, order: MonomialOrder = GREVLEX) -> Ideal:
    return buchberger(ideal, order, budget).as_ideal()


def ideal_quotient(ideal: Ideal, f: Polynomial, limits=None) -> Ideal:
    """(ideal : f) = { g | g*f in ideal }, via (ideal ∩ <f>) / f."""
    budget = Budget.of(limits)
    if f.is_zero:
        raise ValueError("quotient by the zero polynomial")
    if f.is_constant:
        return _canonical(ideal, budget)
    if ideal.is_zero_ideal():
        return ideal
    meet = intersect(ideal, Ideal(ideal.ring, (f,)), budget)
    return Ideal(ideal.ring, [exact_divide(g, f) for g in meet.generators])


def saturate_principal(ideal: Ideal, g: Polynomial, limits=None) -> Ideal:
    """(ideal : g^infinity) in a single elimination: adjoin 1 - w*g, drop w.

    One Groebner basis, where iterating colon ideals to a fixpoint would
    take many.
    """
    budget = Budget.of(limits)
    ring = ideal.ring
    if g.is_zero:
        raise ValueError("saturation by the zero polynomial")
    if g.is_constant:
        return _canonical(ideal, budget)
    if ideal.is_zero_ideal():
        return ideal
    w = ring.fresh_auxiliary("_w")
    ext = ring.extended(w, top=True)
    gens = [ext.transfer(h) for h in ideal.generators]
    gens.append(ext.one - ext.variable(w) * ext.transfer(g))
    order = MonomialOrder.elimination((ext.position[w],), ext.nvars())
    gb = buchberger(gens, order, budget, ring=ext)
    wpos = ext.position[w]
    kept = [ring.transfer(h) for h in gb.elements if wpos not in h.support_positions()]
    return Ideal(ring, kept)
