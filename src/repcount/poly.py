"""Exact sparse multivariate polynomials over Q.

A polynomial lives in a fixed `PolyRing`, which pins down the tuple of
variables and their ranking; it is a sparse map from exponent tuples
(against that ranking) to `fractions.Fraction` coefficients, so every
computation in the package is exact.  Monomial orders (lex, graded reverse
lex, and block elimination orders) are small objects that turn an exponent
tuple into a sortable key.

The reduction kernel, `DivisorTable`, works on another representation.  A
monomial there is two ints: its order key, the order's weight rows read as
the digits of one integer, so int comparison is the monomial order and the
key of a product is the sum of the keys; and its packed exponents, one
16-bit field per variable with a guard bit on top, so a divisibility test is
one subtraction and one mask.  Divisors are primitive integer polynomials
and the reduction is fraction-free; remainders come back with ints wherever
a coefficient is integral.  `buchberger` keeps its basis in that form;
`DivisorTable.normal_form` turns a remainder back into a Polynomial.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, islice
from math import gcd, lcm
from operator import add, le, mul, sub
from typing import Iterable, Mapping, Sequence, Union

Exponents = tuple  # one exponent per ring variable, position 0 = highest ranked
Scalar = Union[int, Fraction]


class ResourceLimitExceeded(Exception):
    """A computation hit a configured budget; the run is inconclusive."""

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        self.detail = detail
        super().__init__("%s limit exceeded%s" % (kind, (": " + detail) if detail else ""))


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

    def fresh_auxiliary(self, tag: str) -> VariableId:
        used = {v.key[1] for v in self.variables if v.kind == "aux" and v.key[0] == tag}
        index = 0
        while index in used:
            index += 1
        return auxiliary(tag, index)

    def extended(self, var: VariableId) -> "PolyRing":
        """A new ring with one extra variable on top of this one."""
        if var in self.position:
            raise ValueError("variable already present: %r" % (var,))
        return PolyRing((var,) + self.variables)

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

    def sorted_terms(self) -> list:
        """Terms in descending order: by total degree, then lex."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __repr__(self) -> str:
        vs = self.ring.variables
        return signed_sum((c, "*".join(vs[p].label if e == 1 else "%s^%d" % (vs[p].label, e)
                                       for p, e in enumerate(mono) if e))
                          for mono, c in self.sorted_terms())


def signed_sum(terms: Iterable[tuple]) -> str:
    """"c*body + c*body - ..." for (coefficient, body) pairs, or "0": an
    empty body stands for 1, and a coefficient of magnitude 1 is left out."""
    chunks = []
    for c, body in terms:
        text = str(abs(c)) if not body else body if abs(c) == 1 else "%s*%s" % (abs(c), body)
        if chunks:
            text = ("- " if c < 0 else "+ ") + text
        elif c < 0:
            text = "-" + text
        chunks.append(text)
    return " ".join(chunks) or "0"


# -- monomial orders --------------------------------------------------------


def _grevlex_key(mono: Exponents) -> tuple:
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _lex_key(mono: Exponents) -> tuple:
    return mono


def _flat(key) -> list:
    return [x for part in key for x in (_flat(part) if type(part) is tuple else (part,))]


class MonomialOrder:
    """Total order on exponent tuples, exposed as a sort-key function.

    Schemes: "lex", "grevlex", and "block" (an elimination order: monomials
    are compared first on the dropped positions, then on the retained ones,
    so any monomial involving a dropped variable beats any that does not
    once degrees enter through the inner scheme -- the block structure makes
    the dropped variables rank above every retained one).
    """

    __slots__ = ("scheme", "dropped", "retained", "_inner", "_cache", "_packings")

    def __init__(self, scheme: str, dropped: Sequence[int] = (), nvars: int | None = None,
                 inner: str = "grevlex"):
        if scheme not in ("lex", "grevlex", "block"):
            raise ValueError("unknown order scheme %r" % scheme)
        self.scheme = scheme
        if scheme == "block":
            if nvars is None:
                raise ValueError("block order needs the ring's variable count")
            if inner not in ("lex", "grevlex"):
                raise ValueError("unknown inner order scheme %r" % inner)
            drop = tuple(sorted(set(dropped)))
            self.dropped = drop
            self.retained = tuple(p for p in range(nvars) if p not in set(drop))
            self._inner = _grevlex_key if inner == "grevlex" else _lex_key
        else:
            self.dropped = ()
            self.retained = ()
            self._inner = _grevlex_key if scheme == "grevlex" else _lex_key
        self._cache: dict = {}
        self._packings: dict = {}  # nvars -> _Packing

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

    def packing(self, nvars: int) -> "_Packing":
        """The kernel's int form of this order on nvars variables.  Every
        key is linear in the exponents, so its entries on the unit
        monomials are the columns of the order's weight rows."""
        packing = self._packings.get(nvars)
        if packing is None:
            units = [tuple(int(p == q) for q in range(nvars)) for p in range(nvars)]
            packing = _Packing([_flat(self.key(u)) for u in units])
            self._packings[nvars] = packing
        return packing

    def __repr__(self) -> str:
        if self.scheme == "block":
            return "MonomialOrder(block, dropped=%r)" % (self.dropped,)
        return "MonomialOrder(%s)" % self.scheme


GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


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


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


def int_if_integral(c: Fraction):
    """c as an int when it is integral, else c itself."""
    return c.numerator if c.denominator == 1 else c


MAX_EXPONENT = (1 << 15) - 1  # the largest exponent a packed field holds


class _Packing:
    """An order's monomials on nvars variables as two ints each.

    `key(m)` is minus the weight rows' values on m read as the signed
    base-2^W digits of one int, the first row most significant.  2^W exceeds
    every row value of a monomial with exponents up to 2 * MAX_EXPONENT, so
    on those monomials distinct keys mean distinct monomials, the smaller
    key belongs to the larger monomial, and key(a * b) = key(a) + key(b).
    `pack(m)` puts exponent p into bits 16p .. 16p + 14 (native unsigned
    shorts) and rejects exponents past MAX_EXPONENT, so bit 16p + 15, the
    guard bit, is clear.  Then a divides b exactly when (pack(b) - pack(a))
    & guard is 0, the difference being the packed quotient, and a sum of
    packed monomials sets a guard bit where an exponent passes MAX_EXPONENT.
    The lcm and the support of packed monomials take a few int operations.
    """

    __slots__ = ("weights", "guard", "nbytes")

    def __init__(self, columns: Sequence[list]):
        nvars = len(columns)  # a column holds the rows' entries on one variable
        digit = (2 * MAX_EXPONENT * max(nvars, 1)).bit_length()
        self.weights = tuple(-sum(x << digit * r for r, x in enumerate(reversed(column)))
                             for column in columns)
        self.guard = int.from_bytes(array("H", [MAX_EXPONENT + 1] * nvars).tobytes(),
                                    sys.byteorder)
        self.nbytes = 2 * nvars

    def key(self, mono: Exponents) -> int:
        return sum(map(mul, mono, self.weights))

    def pack(self, mono: Exponents) -> int:
        try:
            packed = int.from_bytes(array("H", mono).tobytes(), sys.byteorder)
        except OverflowError:  # past 2^16 - 1
            packed = self.guard
        return self.check(packed)

    def check(self, packed: int) -> int:
        if packed & self.guard:
            raise ResourceLimitExceeded("degree", "an exponent is past the packed limit %d"
                                        % MAX_EXPONENT)
        return packed

    def unpack(self, packed: int) -> Exponents:
        return tuple(memoryview(packed.to_bytes(self.nbytes, sys.byteorder)).cast("H"))

    def lcm(self, a: int, b: int) -> int:
        """The fieldwise maximum: the guard bit of a field of (a | guard) - b
        survives exactly where a's exponent is at least b's, and no field
        borrows from the next."""
        guard = self.guard
        sel = ((a | guard) - b) & guard
        mask = sel - (sel >> 15)  # the 15 exponent bits of the fields where a wins
        return (a & mask) | (b & ~mask)

    def divides(self, a: int, b: int) -> bool:
        return not (b - a) & self.guard

    def support(self, packed: int) -> int:
        """The guard bits of the nonzero fields: two monomials are coprime
        when their supports share no bit."""
        guard = self.guard
        return ((packed | guard) - (guard >> 15)) & guard


def primitive(terms: Sequence[tuple], budget=None) -> list:
    """The primitive integer multiple of the nonzero polynomial with these
    terms, with a positive leading coefficient.  Coefficients are ints and
    Fractions; the budget is ticked per term, as wide coefficients make
    each gcd slow."""
    if all(type(c) is int for _, _, c in terms):
        terms = list(terms)
    else:
        denom = lcm(*(c.denominator for _, _, c in terms))
        terms = [(k, p, c.numerator * (denom // c.denominator)) for k, p, c in terms]
    _divide_content({}, terms, budget)
    if min(terms)[2] < 0:
        terms = [(k, p, -c) for k, p, c in terms]
    return terms


class DivisorTable:
    """Preprocessed divisor list for repeated normal-form computations.

    Divisors keep their given order; reduction always rewrites the largest
    pending term against the first divisor whose leading monomial divides it,
    which makes the result deterministic for a fixed divisor sequence.  The
    table grows with `add` (a Polynomial) or `append` (packed terms), so one
    table can follow a basis as it is built, and `s_pair` reduces the
    S-polynomial of two of its divisors.

    Monomials are the order's `_Packing` ints, and a term is the triple
    (order key, packed exponents, coefficient).  `pack` turns a Polynomial
    into terms and `polynomial` turns terms back; `remainder`, `s_pair` and
    `product` take and return terms, so a caller that keeps its polynomials
    as terms, as `buchberger` and `genmat` do, never leaves this form.
    Pending terms sit in a dict keyed by the order key and in a heap of
    those keys; a tail term of a step costs two int additions and one dict
    lookup.  The first divisor of a monomial is found by one subtraction
    and one mask per divisor, and remembered: the table keeps, for every
    monomial it has scanned, its first divisor or the number of divisors
    that were scanned without finding one.  Divisors are only appended, so
    a first divisor stays first, and a miss rescans only the divisors
    appended since.  Exponents are exact up to MAX_EXPONENT; a term past it
    raises ResourceLimitExceeded("degree") when it is read or taken off the
    heap, never a wrong remainder.

    Every divisor is stored as its primitive integer multiple, and the
    reduction is fraction-free: the input's denominators are cleared once,
    and where a leading coefficient lc does not divide the coefficient c it
    cancels, every pending term and the remainder so far are multiplied by
    lc / gcd(c, lc) and the content is divided out again, the multiplier
    being tracked.  `remainder` divides by it once per remainder term, so
    it returns exactly the remainder of the Fraction computation, with ints
    wherever a coefficient is integral; `pseudo_remainder` and `s_pair`
    return the integer multiple and skip that division.

    Given a budget, the reduction ticks it once per step, and once per term
    on a step that rescales or divides out the content, or whose multiplier
    is wider than WIDE_BITS, since products and gcds of wide coefficients
    can make one step take seconds; the steps are added to
    `budget.counters`.
    """

    __slots__ = ("order", "entries", "ring", "packing", "_first")

    def __init__(self, divisors: Sequence[Polynomial], order: MonomialOrder,
                 ring: PolyRing | None = None):
        self.order = order
        self.entries: list = []  # (packed lm, lm key, lc, [(key, packed, c) of the tail]), all ints
        self.ring = ring  # else fixed by the first polynomial packed
        self.packing = None if ring is None else order.packing(ring.nvars())
        self._first: dict = {}  # packed monomial -> first divisor entry, or entries scanned
        for g in divisors:
            self.add(g)

    def pack(self, f: Polynomial) -> list:
        """f's terms (order key, packed exponents, coefficient)."""
        if self.packing is None:
            self.ring, self.packing = f.ring, self.order.packing(f.ring.nvars())
        key, pack = self.packing.key, self.packing.pack
        return [(key(m), pack(m), int_if_integral(c)) for m, c in f.terms.items()]

    def polynomial(self, terms: Iterable[tuple]) -> Polynomial:
        unpack = self.packing.unpack
        return Polynomial._raw(self.ring, {unpack(p): Fraction(c) for _, p, c in terms})

    def add(self, g: Polynomial) -> None:
        """Append g (ignored when zero) as the last divisor."""
        if not g.is_zero:
            self.append(self.pack(g))

    def append(self, terms: Sequence[tuple], budget=None) -> None:
        """Append the nonzero polynomial with these terms as the last divisor,
        stored as its `primitive` integer multiple."""
        tail = primitive(terms, budget)
        lead = min(tail)  # keys are distinct, and the smallest is the largest monomial
        tail.remove(lead)
        self.entries.append((lead[1], lead[0], lead[2], tail))

    def normal_form(self, f: Polynomial, budget=None) -> Polynomial:
        if f.is_zero or not self.entries:
            return f
        return self.polynomial(self.remainder(self.pack(f), budget))

    def s_pair(self, i: int, j: int, budget=None) -> list:
        """A nonzero integer multiple, as terms, of the remainder of the
        S-polynomial of divisors i and j: the `pseudo_remainder` of
        (lc_j/g) u g_i - (lc_i/g) v g_j, where u g_i and v g_j have the lcm
        of the leading monomials as leading monomial and g = gcd(lc_i, lc_j)."""
        packing = self.packing
        lp_i, lk_i, lc_i, tail_i = self.entries[i]
        lp_j, lk_j, lc_j, tail_j = self.entries[j]
        lcm_packed = packing.lcm(lp_i, lp_j)
        lcm_key = packing.key(packing.unpack(lcm_packed))
        g = gcd(lc_i, lc_j)
        terms = []
        for tail, lp, lk, scale in ((tail_i, lp_i, lk_i, lc_j // g),
                                    (tail_j, lp_j, lk_j, -lc_i // g)):
            shift, kshift = lcm_packed - lp, lcm_key - lk
            if budget is not None and scale.bit_length() > WIDE_BITS:
                tail = _each_ticked(tail, budget.tick)
            terms += [(tk + kshift, tp + shift, scale * tc) for tk, tp, tc in tail]
        return self.pseudo_remainder(terms, budget)

    def product(self, pairs: Iterable[tuple], budget=None) -> list:
        """The remainder of the sum of a * b over the pairs (a, b) of term
        lists: keys and packed exponents add, coefficients multiply."""
        return self.remainder([(ka + kb, pa + pb, ca * cb) for a, b in pairs
                               for ka, pa, ca in a for kb, pb, cb in b], budget)

    def remainder(self, terms: Iterable[tuple], budget=None) -> list:
        """The remainder of the sum of the terms, as terms in descending
        order.  A coefficient is an int or a Fraction, which may be
        integral, and terms may share a key; the remainder's coefficients
        are ints wherever they are integral.  On an empty table the
        remainder is the sum, and no step is counted."""
        out, multiplier = self._reduce(terms, budget)
        if multiplier != 1:
            for index, (k, p, c) in enumerate(out):
                if budget is not None:
                    budget.tick()
                out[index] = (k, p, int_if_integral(Fraction(c, multiplier)))
        return out

    def pseudo_remainder(self, terms: Iterable[tuple], budget=None) -> list:
        """A nonzero integer multiple of `remainder(terms)` (empty when that
        is zero), as terms with int coefficients."""
        return self._reduce(terms, budget)[0]

    def _reduce(self, terms: Iterable[tuple], budget) -> tuple:
        """(out, multiplier): the remainder is out / multiplier, where out
        has int coefficients and the multiplier is a positive rational."""
        coeff: dict = {}
        expo: dict = {}  # key -> packed exponents, for every key put on the heap
        for k, p, c in terms:
            acc = coeff.get(k, 0) + c
            if acc:
                coeff[k] = acc
                expo[k] = p
            else:
                del coeff[k], expo[k]
        multiplier = 1
        if not all(type(c) is int for c in coeff.values()):
            multiplier = lcm(*(c.denominator for c in coeff.values()))
            coeff = {k: c.numerator * (multiplier // c.denominator) for k, c in coeff.items()}
        packing = self.packing
        guard, entries = packing.guard, self.entries
        if not entries:  # nothing divides: the remainder is the sum
            for k, m in expo.items():
                if m & guard:
                    packing.check(m)
            return [(k, expo[k], coeff[k]) for k in sorted(coeff)], multiplier
        first = self._first
        tick = None if budget is None else budget.tick
        heap = list(coeff)
        heapify(heap)
        out: list = []
        steps = 0
        while heap:
            k = heappop(heap)
            c = coeff.pop(k, None)
            if c is None:
                continue  # stale heap entry
            steps += 1
            if tick is not None:
                tick()
            m = expo[k]
            if m & guard:
                packing.check(m)
            entry = first.get(m, 0)
            if type(entry) is int:  # not scanned, or scanned up to that many entries
                for entry in islice(entries, entry, None):
                    if not (m - entry[0]) & guard:  # the leading monomial divides m
                        first[m] = entry
                        break
                else:
                    first[m] = len(entries)
                    out.append((k, m, c))
                    continue
            lp, lk, lc, tail = entry
            rescaled = False
            if lc == 1:
                scale = c
            else:
                scale, rest = divmod(c, lc)
                if rest:
                    g = gcd(c, lc)
                    factor = lc // g
                    _rescale(coeff, out, budget, factor)
                    multiplier *= factor
                    scale = c // g
                    rescaled = True
            shift, kshift = m - lp, k - lk
            if tick is not None and scale.bit_length() > WIDE_BITS:
                tail = _each_ticked(tail, tick)
            for tk, tp, tc in tail:
                k2 = tk + kshift
                acc = coeff.get(k2)
                if acc is None:
                    coeff[k2] = -scale * tc
                    # every term of a step lies below the popped one, so a
                    # popped key never returns: a key in expo is on the heap
                    if k2 not in expo:
                        expo[k2] = tp + shift
                        heappush(heap, k2)
                else:
                    acc = acc - scale * tc
                    if acc:
                        coeff[k2] = acc
                    else:
                        del coeff[k2]
            if rescaled:
                content = _divide_content(coeff, out, budget)
                if content != 1:
                    multiplier = Fraction(multiplier, content)
        if budget is not None:
            budget.counters.normal_form_steps += steps
        return out, multiplier


WIDE_BITS = 1024  # a multiplier past this width makes each term of a step slow


def _each_ticked(items: Iterable, tick):
    """The items, calling tick before each."""
    for item in items:
        tick()
        yield item


def _rescale(coeff: dict, out: list, budget, factor: int, divisor: int = 1) -> None:
    """Replace every pending coefficient and every coefficient of the
    remainder so far, c, by c * factor / divisor, which is exact; the
    budget is ticked per term."""
    for k, c in coeff.items():
        if budget is not None:
            budget.tick()
        coeff[k] = c * factor // divisor
    for index, (k, p, c) in enumerate(out):
        if budget is not None:
            budget.tick()
        out[index] = (k, p, c * factor // divisor)


def _divide_content(coeff: dict, out: list, budget) -> int:
    """Divide the pending coefficients and the remainder's by their gcd, the
    content, and return it; the budget is ticked per term."""
    content = 0
    for c in chain(coeff.values(), (c for _, _, c in out)):
        if budget is not None:
            budget.tick()
        content = gcd(content, c)
        if content == 1:
            return 1
    if content > 1:
        _rescale(coeff, out, budget, 1, content)
    return content or 1


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
