"""Buchberger's algorithm and the ideal operations built on it.

Everything here is exact and deterministic: for a fixed monomial order the
reduced Groebner basis returned by `buchberger` is unique whatever the
generator order, and elimination / intersection / quotient / saturation are
all phrased in terms of it.  Resource limits (wall clock, degree cap, basis
size cap) raise `ResourceLimitExceeded`, a distinct failure mode meaning
"ran out of budget", never "wrong answer".
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
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
    monomial_lcm,
    primitive_part,
    reduce as poly_reduce,
)


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


class Budget:
    """Deadline-based view of ResourceLimits, shared across pipeline stages."""

    __slots__ = ("deadline", "max_degree", "max_basis")

    def __init__(self, limits: ResourceLimits | None = None):
        limits = limits or ResourceLimits()
        self.deadline = None if limits.max_seconds is None else time.monotonic() + limits.max_seconds
        self.max_degree = limits.max_degree
        self.max_basis = limits.max_basis

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
    """Minimize then tail-reduce; returns the unique reduced basis, sorted."""
    # minimize: drop any element whose leading monomial another one divides
    lms = [leading_term(g, order)[0] for g in elements]
    keep = []
    for i, g in enumerate(elements):
        mi = lms[i]
        redundant = False
        for j, mj in enumerate(lms):
            if i == j:
                continue
            if all(a <= b for a, b in zip(mj, mi)) and (mi != mj or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    # tail-reduce until stable
    changed = True
    passes = 0
    while changed:
        passes += 1
        if passes > 200:
            raise RuntimeError("interreduction failed to stabilize")
        budget.tick()
        changed = False
        for i in range(len(keep)):
            others = keep[:i] + keep[i + 1:]
            r = poly_reduce(keep[i], others, order, budget)
            if r != keep[i]:
                keep[i] = r
                changed = True
    keep = [make_monic(g, order) for g in keep if not g.is_zero]
    keep.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    return keep


def buchberger(ideal: Ideal | Sequence[Polynomial], order: MonomialOrder = GREVLEX,
               limits: ResourceLimits | Budget | None = None,
               ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal, unique for the given order.

    Pair selection follows the normal strategy (smallest lcm degree first);
    pairs with coprime leading monomials are skipped, and the chain criterion
    prunes pairs covered by an already-processed third element.
    """
    budget = Budget.of(limits)
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
    lc: list = []
    pair_heap: list = []
    pending: set = set()

    def push_pairs(j: int) -> None:
        mj = lm[j]
        for i in range(j):
            lcm = monomial_lcm(lm[i], mj)
            pending.add((i, j))
            heapq.heappush(pair_heap, (sum(lcm), order.key(lcm), i, j))

    def insert(p: Polynomial) -> None:
        p = primitive_part(p, order)
        budget.check_degree(p.total_degree())
        basis.append(p)
        m, c = leading_term(p, order)
        lm.append(m)
        lc.append(c)
        budget.check_basis(len(basis))
        push_pairs(len(basis) - 1)

    for g in sorted(gens, key=lambda g: (g.total_degree(), len(g.terms))):
        r = poly_reduce(g, basis, order, budget)
        if not r.is_zero:
            insert(r)

    while pair_heap:
        budget.tick()
        _, _, i, j = heapq.heappop(pair_heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lcm = monomial_lcm(lm[i], lm[j])
        # coprime leading monomials: the S-polynomial reduces to zero
        if all(a + b == c for a, b, c in zip(lm[i], lm[j], lcm)):
            continue
        # chain criterion: a third element divides the lcm and both of its
        # pairs with i and j were already handled
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if all(a <= b for a, b in zip(lm[k], lcm)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r = poly_reduce(s, basis, order, budget)
        if not r.is_zero:
            insert(r)

    reduced = _interreduce(basis, order, budget)
    if any(g.is_constant for g in reduced):
        reduced = [ring.one]
    return GroebnerBasis(ring, order, reduced)


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


def saturate(ideal: Ideal, multipliers: Sequence[Polynomial], limits=None) -> Ideal:
    """(ideal : <multipliers>^infinity).

    Iterates K <- intersection over g of (K : g) until the reduced basis
    stabilizes; each round multipliers are first reduced modulo K, and ones
    reducing to zero drop out (if all do, the saturation is the unit ideal).
    """
    budget = Budget.of(limits)
    if not multipliers:
        raise ValueError("empty multiplier set")
    ring = ideal.ring
    current = _canonical(ideal, budget)
    current_gb = buchberger(current, GREVLEX, budget)
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


def saturate_principal(ideal: Ideal, g: Polynomial, limits=None) -> Ideal:
    """(ideal : g^infinity) in a single elimination: adjoin 1 - w*g, drop w.

    Agrees with `saturate(ideal, [g])`; used where many saturations are
    needed because it costs one Groebner basis instead of a fixpoint loop.
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
