"""Generic matrices and the polynomial data attached to a presentation.

For n x n representations of an algebra on s generators we work in the
commutative ring B = Q[x[i,j,l]] and send the l-th algebra generator to the
generic matrix (x[i,j,l]).  This module builds:

  * the relations ideal: all matrix entries of the defining relations
    evaluated on generic matrices, read off the packed word matrices;
  * trace generators: traces of words of length <= n^2, one per cyclic
    class (enough to generate the trace ring, by Razmyslov's bound);
  * the irreducibility certificates: polynomials of the form
    trace(M0 * s_m(M1, ..., Mm)) with m = 2(n-1), which vanish simultaneously
    exactly at the non-irreducible points.  Word lengths run up to the
    Pappacena-style bound returned by `length_bound`, `certificate_words`
    lists the n-th-power-free words, which give the same certificate ideal,
    and `certificates` streams one certificate per set of 2n-1 words (the
    certificates alternate in all their slots).

Word matrices, s_m and traces are d x d matrices of packed `DivisorTable` terms,
each entry of a product one `DivisorTable.product` (an empty table reduces nothing).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

from .groebner import Budget, Ideal
from .matrices import Matrix
from .poly import GREVLEX, DivisorTable, PolyRing, Polynomial, matrix_entry
from .presentation import Presentation, format_word


@dataclass(frozen=True)
class GenericMatrixSpace:
    """n, s, the ring B in n^2*s matrix-entry variables, and the s generic matrices."""

    n: int
    s: int
    ring: PolyRing
    matrices: tuple


def build_generic_space(n: int, s: int) -> GenericMatrixSpace:
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    if s < 0:
        raise ValueError("negative generator count")
    variables = [matrix_entry(i, j, l)
                 for l in range(1, s + 1)
                 for i in range(1, n + 1)
                 for j in range(1, n + 1)]
    ring = PolyRing.ranked(variables)
    mats = tuple(
        Matrix([[ring.variable(matrix_entry(i, j, l)) for j in range(1, n + 1)]
                for i in range(1, n + 1)])
        for l in range(1, s + 1))
    return GenericMatrixSpace(n, s, ring, mats)


def relations_ideal(p: Presentation, space: GenericMatrixSpace) -> Ideal:
    """Ideal of B generated by all entries of the relations on generic
    matrices: the nonzero ones, relation by relation, row by row.  Each
    entry is read off the relation's word matrices, from `_word_matrices`
    on an empty table, where the empty word's is the identity."""
    if p.num_generators != space.s:
        raise ValueError("presentation has %d generators, space expects %d"
                         % (p.num_generators, space.s))
    table = DivisorTable((), GREVLEX, space.ring)
    words = [w for rel in p.relations for w in rel.terms]
    matrices = dict(_word_matrices(space, words, table, Budget()))
    gens = []
    for rel in p.relations:
        for i in range(space.n):
            for j in range(space.n):
                entry = table.remainder([(k, q, c * e) for w, c in rel.terms.items()
                                         for k, q, e in matrices[w][i][j]])
                if entry:
                    gens.append(table.polynomial(entry))
    return Ideal(space.ring, gens)


def length_bound(n: int) -> int:
    """Largest admissible word length for the certificate set.

    This is the largest integer strictly below
    n*sqrt(2n^2/(n-1) + 1/4) + n/2 - 2, computed exactly by comparing squares
    of rationals (no floating point).  Needs n >= 2.
    """
    if n < 2:
        raise ValueError("length bound needs n >= 2")
    q = Fraction(2 * n * n, n - 1) + Fraction(1, 4)  # the radicand

    def below(length: int) -> bool:
        # length < n*sqrt(q) + n/2 - 2 ?
        lhs = Fraction(length) - Fraction(n, 2) + 2
        if lhs <= 0:
            return True
        return lhs * lhs < n * n * q

    length = 1
    while below(length + 1):
        length += 1
    return length


@dataclass(frozen=True)
class CyclicWord:
    """A word up to cyclic rotation, stored as its least rotation."""

    letters: tuple

    @staticmethod
    def of(letters: Sequence[int]) -> "CyclicWord":
        w = tuple(letters)
        if not w:
            raise ValueError("cyclic words are nonempty")
        best = min(w[k:] + w[:k] for k in range(len(w)))
        return CyclicWord(best)

    def __len__(self):
        return len(self.letters)

    def render(self) -> str:
        return format_word(self.letters, ["x%d" % (l + 1) for l in range(max(self.letters) + 1)])


@dataclass(frozen=True)
class TraceGenerator:
    """trace(word) as a polynomial of B, for one cyclic word."""

    word: CyclicWord
    value: Polynomial

    def render(self) -> str:
        return "tr(%s)" % self.word.render()


def _necklaces(s: int, max_len: int) -> list:
    seen = set()
    out = []
    for length in range(1, max_len + 1):
        for w in product(range(s), repeat=length):
            cw = CyclicWord.of(w)
            if cw.letters not in seen:
                seen.add(cw.letters)
                out.append(cw)
    out.sort(key=lambda cw: (len(cw.letters), cw.letters))
    return out


def _product_sum(table: DivisorTable, pairs: Sequence[tuple], budget: Budget) -> list:
    """The sum of A * B over the (A, B) pairs of packed matrices.  The budget
    ticks once per call, since with no divisors the products never tick."""
    budget.tick()
    d = len(pairs[0][0])
    return [[table.product([(a[i][k], b[k][j]) for a, b in pairs for k in range(d)], budget)
             for j in range(d)] for i in range(d)]


def _standard_polynomial(table: DivisorTable, args: Sequence[list], budget: Budget) -> list:
    """s_m(A_1..A_m), the signed sum of the products in all m! orders, by
    dynamic programming over subsets: acc[used] is the signed sum over the
    orders of the subset `used`, and appending index k after it contributes
    the sign (-1)^(number of unused indices below k)."""
    m = len(args)
    signed = [(a, [[[(k, p, -c) for k, p, c in e] for e in row] for row in a]) for a in args]
    acc = {frozenset([k]): signed[k][k & 1] for k in range(m)}
    for _ in range(m - 1):
        pairs: dict = {}
        for used, mat in acc.items():
            for k in range(m):
                if k not in used:
                    below = sum(1 for r in range(k) if r not in used)
                    pairs.setdefault(used | {k}, []).append((mat, signed[k][below & 1]))
        acc = {used: _product_sum(table, p, budget) for used, p in pairs.items()}
    return acc[frozenset(range(m))]


def _word_matrices(space: GenericMatrixSpace, words: Sequence[tuple], table: DivisorTable,
                   budget: Budget) -> Iterator[tuple]:
    """Yield (word, packed matrix) for each distinct word, in lexicographic
    order, with entries reduced modulo `table`.  Every prefix of a word gets
    its matrix once, as its parent prefix's matrix times one generic matrix,
    and a matrix is dropped once all its one-letter extensions are built:
    x, x^2, .., x^9 never holds more than two."""
    words = sorted(set(words))
    children = Counter(p[:-1] for p in {w[:k] for w in words for k in range(1, len(w) + 1)})
    generic = [[[table.pack(e) for e in row] for row in x.rows] for x in space.matrices]
    one = [(0, 0, 1)]  # the unit monomial's key and packed exponents are 0
    matrices = {(): [[one if i == j else [] for j in range(space.n)] for i in range(space.n)]}
    for w in words:
        built = len(w)
        while w[:built] not in matrices:  # the longest prefix built so far
            built -= 1
        for k in range(built + 1, len(w) + 1):
            parent = w[:k - 1]
            matrices[w[:k]] = _product_sum(table, [(matrices[parent], generic[w[k - 1]])],
                                           budget)
            children[parent] -= 1
            if not children[parent]:
                del matrices[parent]
        yield w, matrices[w]
        if not children[w]:
            del matrices[w]


def trace_generators(space: GenericMatrixSpace, table: DivisorTable | None = None,
                     limits=None) -> tuple:
    """Trace ring generators: tr(w) over cyclic words of length <= n^2,
    sorted by length then lexicographically, as normal forms modulo `table`
    (none by default), from `_word_matrices`' one product per prefix."""
    plain = DivisorTable((), GREVLEX, space.ring)  # sums the normal forms on the diagonal
    table = plain if table is None else table
    budget = Budget.of(limits)
    necklaces = _necklaces(space.s, space.n * space.n)
    traces = {}
    for w, m in _word_matrices(space, [cw.letters for cw in necklaces], table, budget):
        diagonal = [t for i, row in enumerate(m) for t in row[i]]
        traces[w] = plain.polynomial(plain.remainder(diagonal))
    return tuple(TraceGenerator(cw, traces[cw.letters]) for cw in necklaces)


def _ends_in_power(word: tuple, n: int) -> bool:
    """Whether some suffix of word equals u^n for a nonempty word u."""
    for period in range(1, len(word) // n + 1):
        tail = word[len(word) - n * period:]
        if tail == tail[:period] * n:
            return True
    return False


def certificate_words(s: int, max_len: int, n: int) -> list:
    """The n-th-power-free words of length 0..max_len: those with no factor
    u^n for a nonempty word u.  Sorted by length then lexicographically, and
    prefix-closed.

    They B-span the same module as all words of length <= max_len, so the
    certificates built from them generate the same ideal.  By induction on
    the length L: a word w of length L with a factor u^n is a*u^n*b, and
    Cayley-Hamilton gives u^n = sum_{k<n} c_k(u) u^k with c_k in B, so w is a
    B-combination of the shorter words a*u^k*b, which by induction lie in the
    B-span of the power-free words of length < L.  The certificate
    tr(M0 * s_m(M1..Mm)) is B-multilinear in its word slots, so each
    certificate over all words is a B-combination of certificates over
    power-free words (a repeated slot vanishes, a permuted one flips the
    sign).  This is the trace-identity argument of Procesi, Adv. Math. 19
    (1976).

    Every prefix of a power-free word is power-free, so the list grows by
    extending the previous length's words one letter at a time; a new power
    factor can then only be a suffix.
    """
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (letter,) for w in frontier for letter in range(s)
                    if not _ends_in_power(w + (letter,), n)]
        out.extend(frontier)
    return out


def certificate_terms(space: GenericMatrixSpace, words: Sequence[tuple], table: DivisorTable,
                      budget: Budget) -> Iterator[tuple]:
    """Yield ((M0, M1, .., Mm), terms) for one certificate
    trace(M0 * s_m(M1..Mm)), m = 2(n-1), per set of m + 1 = 2n - 1 of the
    (distinct) `words`, when its normal form modulo `table` is nonzero; the
    terms are that normal form's.

    The order is `for rest in combinations(words, m)`, then M0 over the
    words after rest[-1] in `words` order.  The other candidates of the
    loop over every M0 add nothing.  c(x0..xm) = tr(x0 * s_m(x1..xm)) is
    alternating in all m + 1 slots, because tr(s_{m+1}(x0..xm)) =
    (m + 1) * c(x0..xm): each product in s_{m+1} has the trace of its
    rotation that starts with x0, a rotation of an odd number of factors is
    an even permutation, so the sign is kept too, and each order that
    starts with x0 is the rotation of m + 1 orders.  So a candidate with M0
    among M1..Mm is 0, and any other is + or - the value yielded for its
    word set.  In the loop over every M0 that value comes first, with its
    sign: removing the last word of a set leaves its lexicographically
    smallest m-subset.  The values up to sign, in order of first appearance,
    are therefore those of the full loop, whose size words * C(words, m)
    stays the `certificate_candidates` the values stand for.

    Every entry of a word matrix and of s_m, and every value, is one
    `DivisorTable.product` of normal forms, which is the normal form of the
    unreduced product since normal forms are linear.  The budget ticks once
    per (M1..Mm) tuple and once per matrix product.
    """
    n = space.n
    if n < 2:
        raise ValueError("certificate sets need n >= 2")
    word_matrix = dict(_word_matrices(space, words, table, budget))
    position = {w: i for i, w in enumerate(words)}
    for rest in combinations(words, 2 * (n - 1)):
        budget.tick()
        after = words[position[rest[-1]] + 1:]
        if not after:
            continue
        alt = _standard_polynomial(table, [word_matrix[w] for w in rest], budget)
        if not any(e for row in alt for e in row):
            continue
        for m0 in after:
            left = word_matrix[m0]
            value = table.product([(left[i][k], alt[k][i]) for i in range(n) for k in range(n)],
                                  budget)
            if value:
                yield (m0,) + rest, value


def certificates(space: GenericMatrixSpace, words: Sequence[tuple],
                 table: DivisorTable | None = None, limits=None) -> Iterator[tuple]:
    """`certificate_terms` as Polynomials, modulo `table` (none by default)."""
    table = DivisorTable((), GREVLEX, space.ring) if table is None else table
    for slots, terms in certificate_terms(space, words, table, Budget.of(limits)):
        yield slots, table.polynomial(terms)
