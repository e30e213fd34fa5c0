"""Buchberger's algorithm and the ideal operations built on it.

Everything here is exact and deterministic: for a fixed monomial order the
reduced Groebner basis returned by `buchberger` is unique whatever the
generator order, and elimination / intersection / quotient / saturation are
all phrased in terms of it.  Resource limits (wall clock, degree cap, basis
size cap) raise `ResourceLimitExceeded`, a distinct failure mode meaning
"ran out of budget", never "wrong answer".

`buchberger` keeps the basis it builds as the packed entries of one divisor
table for the whole run: it reduces every S-pair inside it on packed
monomials and integer coefficients, fraction-free, prunes pairs with the
Gebauer-Moeller update on the packed leading monomials (Gebauer and Moeller,
J. Symbolic Comput. 6 (1988); the UPDATE procedure of Becker and
Weispfenning, "Groebner Bases", 1993), selects them by lcm degree, then
sugar (Giovini, Mora, Niesi, Robbiano and Traverso, ISSAC 1991), then lcm,
and tail-reduces the final basis in one pass into the table the returned
basis keeps.  Each `Budget` counts the work it has paid for in
`EngineCounters`, in total and per pipeline stage.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from math import prod
from typing import Iterable, Sequence

from .poly import (
    DivisorTable,
    MonomialOrder,
    GREVLEX,
    PolyRing,
    Polynomial,
    ResourceLimitExceeded,
    exact_divide,
)
# unused here, but bench/tracing.py wraps `poly.reduce` in every module that
# binds it, and its self-test checks this binding
from .poly import reduce as poly_reduce  # noqa: F401


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
    normal_form_steps: int = 0  # terms taken off the heap in a reduction
    max_coeff_bits: int = 0  # the widest coefficient of an inserted element; a maximum


class Budget:
    """Deadline-based view of ResourceLimits, shared across pipeline stages,
    and the engine counters and seconds of the work done under it."""

    __slots__ = ("deadline", "max_degree", "max_basis", "counters", "stages", "timings",
                 "current")

    def __init__(self, limits: ResourceLimits | None = None):
        limits = limits or ResourceLimits()
        self.deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds
        self.max_degree = limits.max_degree
        self.max_basis = limits.max_basis
        self.counters = EngineCounters()
        self.stages: dict = {}  # stage name -> EngineCounters of the work done in it
        self.timings: dict = {}  # stage name -> seconds, summed over its entries
        self.current: str | None = None  # the last stage entered

    @contextmanager
    def stage(self, name: str):
        """Count the work done in the block in `stages[name]` as well, so the
        stages add up to `counters`; max_coeff_bits is the stage's own.  The
        block's seconds add to `timings[name]`."""
        self.current = name
        counters = self.counters
        widest, counters.max_coeff_bits = counters.max_coeff_bits, 0
        before = astuple(counters)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - t0
            spent = self.stages.setdefault(name, EngineCounters())
            for f, then in zip(fields(counters), before):
                now, sofar = getattr(counters, f.name), getattr(spent, f.name)
                setattr(spent, f.name,
                        max(sofar, now) if f.name == "max_coeff_bits" else sofar + now - then)
            counters.max_coeff_bits = max(widest, counters.max_coeff_bits)

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


class GroebnerBasis:
    """A reduced Groebner basis: monic, tail-reduced, sorted by leading term."""

    __slots__ = ("ring", "order", "elements", "table")

    def __init__(self, ring: PolyRing, order: MonomialOrder, elements: Sequence[Polynomial],
                 table: DivisorTable | None = None):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        # the divisor table of exactly these elements, in this order
        self.table = DivisorTable(self.elements, order, ring) if table is None else table

    @property
    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant

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


def _interreduce(table: DivisorTable, minimal: list, budget: Budget) -> GroebnerBasis:
    """The reduced basis, sorted, from a minimal one (no leading monomial
    divides another): the entries of `table` at the indices `minimal`.

    One pass in ascending order of leading monomials: each element is
    reduced against the smaller ones, already reduced.  That is enough, since
    every tail term lies below its own leading monomial, so no larger
    leading monomial divides it.  The table of the reduced elements becomes
    the basis's table.
    """
    reduced = DivisorTable((), table.order, table.ring)
    elements = []
    for lp, lk, lc, tail in sorted((table.entries[i] for i in minimal), key=lambda e: -e[1]):
        budget.tick()
        r = reduced.pseudo_remainder([(lk, lp, lc)] + tail, budget)
        lc = min(r)[2]
        elements.append(reduced.polynomial([(k, p, Fraction(c, lc)) for k, p, c in r]))
        reduced.append(r, budget)
    return GroebnerBasis(table.ring, table.order, elements, reduced)


def buchberger(ideal: Ideal | Sequence[Polynomial], order: MonomialOrder = GREVLEX,
               limits: ResourceLimits | Budget | None = None,
               ring: PolyRing | None = None, known: Sequence[Polynomial] = ()) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal, unique for the given order.

    `known`, when given, is a reduced Groebner basis for `order` of part of
    the ideal, which the generators extend.  Its elements enter the basis
    with no pair among them: their S-polynomials all reduce to zero, so the
    Gebauer-Moeller invariant holds from the start, and only the pairs with
    new elements are formed.

    Pairs are taken smallest first by (lcm degree, sugar, lcm): the normal
    strategy, with ties in degree broken by the sugar, the degree the pair's
    S-polynomial would have were every element homogenized.  A generator or
    a `known` element has its total degree as sugar, the pair (i, j) has
    deg lcm + max(sugar_i - deg lm_i, sugar_j - deg lm_j), and the element
    a pair inserts takes the pair's sugar.  The basis is built as the
    entries of one divisor table, on packed monomials: each new element is
    reduced against all earlier ones there and updates the pair set by
    Gebauer-Moeller (`update`).  A constant element ends the run with the
    unit ideal.

    Elements are kept as primitive integer polynomials, which is how the
    table stores them.  `DivisorTable.s_pair` builds each S-polynomial from
    the table's packed tails with integer cofactors and pseudo-divides it,
    so no Fraction appears on that path: the remainder comes back as an
    integer multiple of the one of the monic S-polynomial, which has the
    same primitive part.  Polynomials are built only for the reduced basis.
    """
    budget = Budget.of(limits)
    counters = budget.counters
    if isinstance(ideal, Ideal):
        gens = list(ideal.generators)
        ring = ideal.ring
    else:
        gens = [g for g in ideal if not g.is_zero]
        if ring is None:
            if not gens and not known:
                raise ValueError("cannot infer the ring of an empty generator list")
            ring = (gens or known)[0].ring
    if not gens and not known:
        return GroebnerBasis(ring, order, ())

    table = DivisorTable((), order, ring)
    packing = table.packing
    guard, lcm, unpack, key = packing.guard, packing.lcm, packing.unpack, packing.key
    entries = table.entries  # the basis: (packed lm, lm key, lc, tail)
    supports = []  # packing.support of each leading monomial
    ecarts = []  # the sugar of each element less the degree of its leading monomial
    active: list = []  # indices of elements no later leading monomial divides
    pairs: list = []  # heap of (lcm degree, sugar, -lcm key, i, j, packed lcm)
    graded = order.scheme == "grevlex"  # no term is of larger degree than the leading one

    def update(k: int) -> None:
        """Gebauer-Moeller: pair k with the active elements and prune the
        pairs, counting the drops in `counters`."""
        mk, sk, ek = entries[k][0], supports[k], ecarts[k]
        lcms = [lcm(entries[i][0], mk) for i in active]
        # M/F: a non-coprime pair goes when the lcm of a later new pair or of a
        # kept earlier one divides its lcm.  Packed divisors are no larger as
        # ints, so a prefix of the lcms sorted by value is scanned, where the
        # pair itself and the dropped ones read `guard`, which divides none.
        by_value = sorted(range(len(lcms)), key=lcms.__getitem__)
        live = [lcms[index] for index in by_value]
        values = list(live)  # live is sorted, and changes below
        slot = dict(zip(by_value, range(len(lcms))))
        kept = []  # Becker-Weispfenning's D, less the coprime pairs
        for index, i in enumerate(active):
            if not supports[i] & sk:
                counters.dropped_coprime += 1
                continue
            m = lcms[index]
            live[slot[index]] = guard
            for other in islice(live, bisect_right(values, m)):
                if not (m - other) & guard:
                    counters.dropped_mf += 1
                    break
            else:
                live[slot[index]] = m
                kept.append((i, m))
        gone = {id(pair) for pair in pairs if not (pair[5] - mk) & guard
                and lcm(entries[pair[3]][0], mk) != pair[5]
                and lcm(entries[pair[4]][0], mk) != pair[5]}
        if gone:
            counters.dropped_b += len(gone)
            pairs[:] = [pair for pair in pairs if id(pair) not in gone]
            heapify(pairs)
        for i, m in kept:
            exponents = unpack(m)
            degree = sum(exponents)
            heappush(pairs, (degree, degree + max(ecarts[i], ek), -key(exponents), i, k, m))
        active[:] = [i for i in active if (entries[i][0] - mk) & guard] + [k]

    def insert(terms: list, sugar: int) -> bool:
        """Add the primitive part of the remainder with this sugar; True when
        it is a constant, so the ideal is the unit ideal."""
        table.append(terms, budget)
        lead, _, lc, tail = entries[-1]
        degree = sum(unpack(lead))
        if budget.max_degree is not None:
            budget.check_degree(degree if graded else
                                max([degree] + [sum(unpack(p)) for _, p, _ in tail]))
        counters.max_coeff_bits = max(counters.max_coeff_bits, lc.bit_length(),
                                      *(c.bit_length() for _, _, c in tail))
        budget.check_basis(len(entries))
        supports.append(packing.support(lead))
        ecarts.append(sugar - degree)
        update(len(entries) - 1)
        return lead == 0

    for g in known:
        table.append(table.pack(g))
        lead = entries[-1][0]
        supports.append(packing.support(lead))
        ecarts.append(g.total_degree() - sum(unpack(lead)))
        active.append(len(entries) - 1)
    if any(entry[0] == 0 for entry in entries):
        return GroebnerBasis(ring, order, (ring.one,))

    for g in sorted(gens, key=lambda g: (g.total_degree(), len(g.terms))):
        r = table.pseudo_remainder(table.pack(g), budget)
        if r and insert(r, g.total_degree()):
            return GroebnerBasis(ring, order, (ring.one,))

    while pairs:
        budget.tick()
        _, sugar, _, i, j, _ = heappop(pairs)
        counters.s_pairs += 1
        r = table.s_pair(i, j, budget)
        if not r:
            counters.zero_reductions += 1
        elif insert(r, sugar):
            return GroebnerBasis(ring, order, (ring.one,))

    return _interreduce(table, active, budget)


def intersect(a: Ideal, b: Ideal, limits=None, order: MonomialOrder = GREVLEX) -> Ideal:
    """a ∩ b via the usual trick: eliminate w from w*a + (1-w)*b.  The
    generators are the reduced basis of the intersection for `order`."""
    budget = Budget.of(limits)
    ring = a.ring
    if b.ring is not ring:
        raise ValueError("ideals from different rings")
    if a.is_zero_ideal() or b.is_zero_ideal():
        return Ideal(ring)
    if any(g.is_constant for g in a.generators):
        return _canonical(b, budget, order)
    if any(g.is_constant for g in b.generators):
        return _canonical(a, budget, order)
    return Ideal(ring, _eliminate_new_variable(ring, order, lambda ext, w: (
        [w * ext.transfer(g) for g in a.generators]
        + [(ext.one - w) * ext.transfer(g) for g in b.generators]), budget))


def _eliminate_new_variable(ring: PolyRing, order: MonomialOrder, generators, budget: Budget,
                            known: Sequence[Polynomial] = (), extra: int = 0) -> list:
    """The reduced basis for `order` of the intersection with `ring` of the
    ideal that `known` and generators(ext, w, ts) span in `ring` extended by
    a new top variable w and `extra` new variables ts below it: the elements
    free of w and the ts of the reduced basis for the block order that
    eliminates them all at once and compares the rest by `order`.

    A reduced basis for `order` in `ring`, passed as `known`, is one for
    the block order too, so it is extended, not rebuilt.
    """
    ext = ring
    for tag in ["_t"] * extra + ["_w"]:
        ext = ext.extended(ext.fresh_auxiliary(tag), top=True)
    dropped = range(extra + 1)  # the positions of w, then of the ts
    block = MonomialOrder.elimination(dropped, ext.nvars(), order.scheme)
    gb = buchberger(generators(ext, *(ext.variable(ext.variables[p]) for p in dropped)), block,
                    budget, ring=ext, known=[ext.transfer(h) for h in known])
    return [ring.transfer(g) for g in gb.elements if all(p > extra for p in g.support_positions())]


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


def saturate_principal(basis: GroebnerBasis | Ideal, *gens: Polynomial,
                       limits=None) -> GroebnerBasis:
    """(basis : <gens>^infinity) in a single elimination.

    With gens g_0..g_{r-1}, take k = ceil(log2 r) new variables t_1..t_k
    and h = sum_i m_i * g_i, where m_i is the squarefree monomial in the ts
    whose exponents are the binary digits of i (m_0 = 1, so one multiplier
    needs no t).  Adjoin 1 - w*h and drop w and the ts:

        (I*B[t] : h^infinity) ∩ B = I : J^infinity,  J = <g_0..g_{r-1}>.

    Proof.  Let I = Q_1 ∩ .. ∩ Q_s be a primary decomposition, Q_j
    P_j-primary.  Then I*B[t] = ∩ Q_j*B[t], with Q_j*B[t] primary to the
    prime P_j*B[t].  A polynomial of B[t] lies in P*B[t] exactly when its
    coefficients as a polynomial in the ts do, and the m_i are distinct
    monomials, so h lies in P_j*B[t] exactly when every g_i lies in P_j,
    that is when J ⊆ P_j.  Saturating at h therefore keeps exactly the
    Q_j*B[t] with J not inside P_j, each of which contracts to Q_j in B;
    the intersection of those Q_j is I : J^infinity.  And (K + <1 - w*h>)
    ∩ B[t] = K : h^infinity is the one elimination.

    The monomials are binary, not m_i = t^(i-1) in a single t, because
    h's degree counts against the budget's degree cap: that would add
    r - 1 to it (a 3-generator quantum plane at n = 2 already has 44
    multipliers), binary monomials add at most k.

    `basis` is a reduced Groebner basis (an Ideal is first given its
    grevlex one); the elimination extends it by 1 - w*h, and the
    saturation comes back as the reduced basis in its order.  A constant
    among the gens leaves the basis as it is.
    """
    budget = Budget.of(limits)
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("saturation at the zero ideal")
    if isinstance(basis, Ideal):
        basis = buchberger(basis, GREVLEX, budget)
    if any(g.is_constant for g in gens) or not basis.elements:
        return basis
    extra = (len(gens) - 1).bit_length()

    def generators(ext, w, *ts):
        h = ext.zero
        for i, g in enumerate(gens):
            m = prod((t for b, t in enumerate(ts) if i >> b & 1), start=ext.one)  # m_i
            h = h + m * ext.transfer(g)
        return [ext.one - w * h]

    return GroebnerBasis(basis.ring, basis.order, _eliminate_new_variable(
        basis.ring, basis.order, generators, budget, basis.elements, extra))
