"""Exact sparse multivariate polynomials over Q.

Coefficients are `fractions.Fraction` throughout, so every computation in the
package is exact.  A polynomial lives in a fixed `PolyRing`, which pins down
the tuple of variables and their ranking; monomials are stored as exponent
tuples against that ranking (the term map itself is sparse).  Monomial orders
(lex, graded reverse lex, and block elimination orders) are small objects that
turn an exponent tuple into a sortable key.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, le, sub
from typing import Iterable, Mapping, Sequence, Union

Exponents = tuple  # one exponent per ring variable, position 0 = highest ranked
Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class VariableId:
    """A ring variable: a generic-matrix entry or a tagged auxiliary.

    Matrix entries carry `key = (l, i, j)` (all 1-based: entry (i, j) of the
    l-th generic matrix); auxiliaries carry `key = (tag, index)`.  Auxiliary
    variables rank above every matrix entry, matrix entries rank by (l, i, j).
    """

    kind: str  # "aux" | "matrix"
    key: tuple
    label: str

    def rank_key(self) -> tuple:
        return (0, self.key) if self.kind == "aux" else (1, self.key)

    def __repr__(self) -> str:
        return self.label


def matrix_entry(i: int, j: int, l: int) -> VariableId:
    """The variable x[i,j,l]: entry (i, j) of the l-th generic matrix."""
    if min(i, j, l) < 1:
        raise ValueError("matrix entry indices are 1-based")
    return VariableId("matrix", (l, i, j), "x[%d,%d,%d]" % (i, j, l))


def auxiliary(tag: str, index: int = 0) -> VariableId:
    label = tag if index == 0 else "%s%d" % (tag, index)
    return VariableId("aux", (tag, index), label)


class PolyRing:
    """Q[variables] with a fixed ranking: position 0 ranks highest."""

    __slots__ = ("variables", "position", "zero", "one", "_zero_mono")

    def __init__(self, variables: Sequence[VariableId]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variables in ring")
        self.variables = vs
        self.position = {v: p for p, v in enumerate(vs)}
        self._zero_mono = (0,) * len(vs)
        self.zero = Polynomial._raw(self, {})
        self.one = Polynomial._raw(self, {self._zero_mono: Fraction(1)})

    @staticmethod
    def ranked(variables: Iterable[VariableId]) -> "PolyRing":
        """Ring with the default ranking (auxiliaries first, then (l,i,j))."""
        return PolyRing(sorted(variables, key=VariableId.rank_key))

    def nvars(self) -> int:
        return len(self.variables)

    def constant(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero
        return Polynomial._raw(self, {self._zero_mono: c})

    def variable(self, v: VariableId) -> "Polynomial":
        mono = tuple(1 if p == self.position[v] else 0 for p in range(self.nvars()))
        return Polynomial._raw(self, {mono: Fraction(1)})

    def monomial(self, exponents: Mapping[VariableId, int], coeff: Scalar = 1) -> "Polynomial":
        expo = [0] * self.nvars()
        for v, e in exponents.items():
            if e < 0:
                raise ValueError("negative exponent")
            expo[self.position[v]] = e
        c = Fraction(coeff)
        if c == 0:
            return self.zero
        return Polynomial._raw(self, {tuple(expo): c})

    def fresh_auxiliary(self, tag: str) -> VariableId:
        used = {v.key[1] for v in self.variables if v.kind == "aux" and v.key[0] == tag}
        index = 0
        while index in used:
            index += 1
        return auxiliary(tag, index)

    def extended(self, var: VariableId, *, top: bool = True) -> "PolyRing":
        """A new ring with one extra variable on top of (or below) this one."""
        if var in self.position:
            raise ValueError("variable already present: %r" % (var,))
        return PolyRing((var,) + self.variables if top else self.variables + (var,))

    def transfer(self, f: "Polynomial") -> "Polynomial":
        """Re-express `f` (from a ring sharing variable ids) in this ring.

        Every variable actually occurring in `f` must exist here; this is how
        polynomials move in and out of temporarily extended rings.
        """
        if f.ring is self:
            return f
        src = f.ring.variables
        dest = [self.position.get(v) for v in src]
        n = self.nvars()
        terms: dict = {}
        for mono, c in f.terms.items():
            expo = [0] * n
            for p, e in enumerate(mono):
                if e:
                    q = dest[p]
                    if q is None:
                        raise ValueError("variable %r does not exist in target ring" % (src[p],))
                    expo[q] = e
            terms[tuple(expo)] = c
        return Polynomial._raw(self, terms)

    def __eq__(self, other):
        """Rings are equal when they have the same ranked variables, so a
        ring built twice compares equal to itself."""
        if self is other:
            return True
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self) -> str:
        return "PolyRing(%s)" % ", ".join(v.label for v in self.variables)


def _format_coeff(c: Fraction) -> str:
    return str(c)


class Polynomial:
    """Immutable sparse polynomial: a term map exponent-tuple -> Fraction."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, Scalar]):
        clean = {}
        n = ring.nvars()
        for mono, c in terms.items():
            if len(mono) != n:
                raise ValueError("exponent tuple has wrong length")
            c = Fraction(c)
            if c != 0:
                clean[tuple(mono)] = c
        self.ring = ring
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        self._hash = None
        return self

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Max total degree of a term (0 for the zero polynomial)."""
        return max(map(sum, self.terms), default=0)

    def support_positions(self) -> set:
        out: set = set()
        for mono in self.terms:
            for p, e in enumerate(mono):
                if e:
                    out.add(p)
        return out

    def coefficient(self, mono: Exponents) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def num_terms(self) -> int:
        return len(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = c
            else:
                acc = acc + c
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        return Polynomial._raw(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = -c
            else:
                acc = acc - c
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        return Polynomial._raw(self.ring, terms)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ring.zero
            c0 = Fraction(other)
            return Polynomial._raw(self.ring, {m: c * c0 for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                mono = tuple(map(add, ma, mb))
                acc = out.get(mono)
                if acc is None:
                    out[mono] = ca * cb
                else:
                    acc = acc + ca * cb
                    if acc:
                        out[mono] = acc
                    else:
                        del out[mono]
        return Polynomial._raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def scale_shift(self, coeff: Fraction, shift: Exponents) -> "Polynomial":
        """coeff * monomial(shift) * self, the workhorse of reduction."""
        if coeff == 1:
            terms = {tuple(map(add, m, shift)): c for m, c in self.terms.items()}
        else:
            terms = {tuple(map(add, m, shift)): c * coeff for m, c in self.terms.items()}
        return Polynomial._raw(self.ring, terms)

    # -- equality / rendering ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return ((self.ring is other.ring or self.ring == other.ring)
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def sorted_terms(self, order: "MonomialOrder | None" = None) -> list:
        """Terms in descending order (default: by total degree, then lex)."""
        if order is None:
            return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        key = order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        vs = self.ring.variables
        chunks = []
        for mono, c in self.sorted_terms():
            factors = []
            for p, e in enumerate(mono):
                if e == 1:
                    factors.append(vs[p].label)
                elif e > 1:
                    factors.append("%s^%d" % (vs[p].label, e))
            body = "*".join(factors)
            if not body:
                text = _format_coeff(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = "%s*%s" % (_format_coeff(abs(c)), body)
            if not chunks:
                chunks.append(text if c > 0 else "-" + text)
            else:
                chunks.append(("+ " if c > 0 else "- ") + text)
        return " ".join(chunks)


# -- monomial orders --------------------------------------------------------


def _grevlex_key(mono: Exponents) -> tuple:
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _lex_key(mono: Exponents) -> tuple:
    return mono


class MonomialOrder:
    """Total order on exponent tuples, exposed as a sort-key function.

    Schemes: "lex", "grevlex", and "block" (an elimination order: monomials
    are compared first on the dropped positions, then on the retained ones,
    so any monomial involving a dropped variable beats any that does not
    once degrees enter through the inner scheme -- the block structure makes
    the dropped variables rank above every retained one).
    """

    __slots__ = ("scheme", "dropped", "retained", "_inner", "_cache")

    def __init__(self, scheme: str, dropped: Sequence[int] = (), nvars: int | None = None,
                 inner: str = "grevlex"):
        if scheme not in ("lex", "grevlex", "block"):
            raise ValueError("unknown order scheme %r" % scheme)
        self.scheme = scheme
        if scheme == "block":
            if nvars is None:
                raise ValueError("block order needs the ring's variable count")
            drop = tuple(sorted(set(dropped)))
            self.dropped = drop
            self.retained = tuple(p for p in range(nvars) if p not in set(drop))
            self._inner = _grevlex_key if inner == "grevlex" else _lex_key
        else:
            self.dropped = ()
            self.retained = ()
            self._inner = _grevlex_key if scheme == "grevlex" else _lex_key
        self._cache: dict = {}

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def elimination(dropped: Sequence[int], nvars: int, inner: str = "grevlex") -> "MonomialOrder":
        return MonomialOrder("block", dropped, nvars, inner)

    def key(self, mono: Exponents) -> tuple:
        k = self._cache.get(mono)
        if k is None:
            if self.scheme == "block":
                k = (self._inner(tuple(mono[p] for p in self.dropped)),
                     self._inner(tuple(mono[p] for p in self.retained)))
            else:
                k = self._inner(mono)
            self._cache[mono] = k
        return k

    def greater(self, a: Exponents, b: Exponents) -> bool:
        return self.key(a) > self.key(b)

    def __repr__(self) -> str:
        if self.scheme == "block":
            return "MonomialOrder(block, dropped=%r)" % (self.dropped,)
        return "MonomialOrder(%s)" % self.scheme


GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


def base_order(name: str) -> MonomialOrder:
    if name == "grevlex":
        return MonomialOrder.grevlex()
    if name == "lex":
        return MonomialOrder.lex()
    raise ValueError("unknown base order %r" % name)


# -- leading terms and division ---------------------------------------------


def leading_term(f: Polynomial, order: MonomialOrder) -> tuple:
    """(monomial, coefficient) of the largest term of f; error on zero."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    key = order.key
    best = max(f.terms, key=key)
    return best, f.terms[best]


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    """Whether the monomial a divides b."""
    return all(map(le, a, b))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def _int_if_integral(c: Fraction):
    """c as an int when it is integral, else c itself."""
    return c.numerator if c.denominator == 1 else c


class DivisorTable:
    """Preprocessed divisor list for repeated normal-form computations.

    Divisors keep their given order; reduction always rewrites the largest
    pending term against the first divisor whose leading monomial divides it,
    which makes the result deterministic for a fixed divisor sequence.  The
    table grows with `add`, so one table can follow a basis as it is built.

    Integral coefficients are stored as ints, and `normal_form` works on
    ints wherever the leading coefficient divides the term it cancels;
    Fractions appear only where a division is inexact.  The result is
    exactly the Fraction computation's, converted back to Fractions.

    Given a budget, `normal_form` ticks it once per reduction step, and once
    per term on a step with a Fraction multiplier, since Fraction arithmetic
    on large coefficients can make one step take seconds; the steps are
    added to `budget.counters`.
    """

    __slots__ = ("order", "entries", "min_degree")

    def __init__(self, divisors: Sequence[Polynomial], order: MonomialOrder):
        self.order = order
        self.entries: list = []
        self.min_degree = 0
        for g in divisors:
            self.add(g)

    def add(self, g: Polynomial) -> None:
        """Append g (ignored when zero) as the last divisor."""
        if g.is_zero:
            return
        lm, lc = leading_term(g, self.order)
        tail = [(m, _int_if_integral(c)) for m, c in g.terms.items() if m != lm]
        deg = sum(lm)
        if not self.entries or deg < self.min_degree:
            self.min_degree = deg
        self.entries.append((lm, _int_if_integral(lc), tail, deg))

    def normal_form(self, f: Polynomial, budget=None) -> Polynomial:
        if f.is_zero or not self.entries:
            return f
        key = self.order.key
        coeff = {m: _int_if_integral(c) for m, c in f.terms.items()}
        heap = [_NegKey(key(m), m) for m in coeff]
        heapq.heapify(heap)
        out: dict = {}
        entries = self.entries
        min_deg = self.min_degree
        steps = 0
        while heap:
            m = heapq.heappop(heap).mono
            c = coeff.pop(m, None)
            if c is None:
                continue  # stale heap entry
            steps += 1
            if budget is not None:
                budget.tick()
            mdeg = sum(m)
            hit = None
            if mdeg >= min_deg:
                for lm, lc, tail, deg in entries:
                    if deg <= mdeg and all(map(le, lm, m)):  # lm divides m
                        hit = (lm, lc, tail)
                        break
            if hit is None:
                out[m] = Fraction(c) if type(c) is int else c
                continue
            lm, lc, tail = hit
            if lc == 1:
                scale = c
            elif type(c) is int and type(lc) is int and not c % lc:
                scale = c // lc
            else:
                scale = Fraction(c) / lc
            shift = monomial_div(m, lm)
            fraction_step = budget is not None and type(scale) is not int
            for tm, tc in tail:
                if fraction_step:
                    budget.tick()
                m2 = tuple(map(add, tm, shift))
                acc = coeff.get(m2)
                if acc is None:
                    coeff[m2] = -scale * tc
                    heapq.heappush(heap, _NegKey(key(m2), m2))
                else:
                    acc = acc - scale * tc
                    if acc:
                        coeff[m2] = acc
                    else:
                        del coeff[m2]
        if budget is not None:
            budget.counters.normal_form_steps += steps
        return Polynomial._raw(f.ring, out)


class _NegKey:
    """Heap wrapper: max-order key behaves min-first inside heapq."""

    __slots__ = ("key", "mono")

    def __init__(self, key, mono):
        self.key = key
        self.mono = mono

    def __lt__(self, other):
        return self.key > other.key


def reduce(f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder,
           budget=None) -> Polynomial:
    """Remainder of f on division by the divisor sequence.

    Deterministic: the largest still-reducible term is always rewritten
    against the first applicable divisor.  With a Groebner basis as divisors
    this is the unique normal form.
    """
    return DivisorTable(divisors, order).normal_form(f, budget)


def exact_divide(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Quotient f / g when the division is exact; raises otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return f
    lm, lc = leading_term(g, order)
    quotient: dict = {}
    rest = f
    while not rest.is_zero:
        m, c = leading_term(rest, order)
        if not monomial_divides(lm, m):
            raise ValueError("inexact polynomial division")
        shift = monomial_div(m, lm)
        scale = c / lc
        quotient[shift] = scale
        rest = rest - g.scale_shift(scale, shift)
    return Polynomial._raw(f.ring, quotient)


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
