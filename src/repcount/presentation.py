"""Finitely presented associative algebras over Q.

A presentation is a tuple of generator names plus relations, each relation a
Q-linear combination of words in the generators.  The text format is line
oriented:

    # comment
    generators: X Y        (or: generators: X, Y)
    relation: X*Y - Y*X - 1
    relation: 2/3 * X^2

Powers are expanded at parse time, so relations are stored as plain words.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Mapping, Sequence

from .poly import signed_sum

Word = tuple  # tuple of 0-based generator indices; () is the empty word


class PresentationError(ValueError):
    """Malformed presentation text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        self.message = message
        self.line = line
        self.column = column
        super().__init__("line %d, column %d: %s" % (line, column, message))


class ZeroRelationWarning(UserWarning):
    """A relation simplified to zero and was dropped."""


class FreeElement:
    """Element of the free associative algebra: words with rational weights."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Fraction | int] | None = None):
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                clean[tuple(w)] = c
        self.terms = clean

    @staticmethod
    def zero() -> "FreeElement":
        return FreeElement()

    @staticmethod
    def one() -> "FreeElement":
        return FreeElement({(): 1})

    @staticmethod
    def generator(index: int) -> "FreeElement":
        return FreeElement({(index,): 1})

    @staticmethod
    def word(letters: Iterable[int]) -> "FreeElement":
        return FreeElement({tuple(letters): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_letter(self) -> int:
        """Largest generator index used, or -1 for scalar elements."""
        return max((l for w in self.terms for l in w), default=-1)

    def _coerce(self, other):
        if isinstance(other, FreeElement):
            return other
        if isinstance(other, (int, Fraction)):
            return FreeElement({(): other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w, 0) + c
            if acc:
                terms[w] = acc
            else:
                terms.pop(w, None)
        return FreeElement(terms)

    __radd__ = __add__

    def __neg__(self):
        return FreeElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FreeElement({w: c * other for w, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                acc = out.get(w, 0) + ca * cb
                if acc:
                    out[w] = acc
                else:
                    out.pop(w, None)
        return FreeElement(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FreeElement({w: other * c for w, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = FreeElement.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def __repr__(self):
        if self.is_zero:
            return "0"

        def word(w):
            return "*".join("g%d" % letter for letter in w) or "1"

        return " + ".join("%s*%s" % (c, word(w)) for w, c in self.sorted_terms())


@dataclass(frozen=True)
class Presentation:
    generators: tuple  # names; generator k is the letter k of the relations' words
    relations: tuple
    name: str | None = None

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        s = len(self.generators)
        for r in self.relations:
            if r.max_letter() >= s:
                raise ValueError("relation uses an undeclared generator index")

    @property
    def num_generators(self) -> int:
        return len(self.generators)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


def _tokenize(text: str, line_no: int, col0: int) -> list:
    """Tokens (kind, value, column) for one relation expression."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        col = col0 + pos
        if ch in "+-*/^":
            tokens.append((ch, ch, col))
            pos += 1
            continue
        m = _INT_RE.match(text, pos)
        if m:
            tokens.append(("int", m.group(), col))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(("name", m.group(), col))
            pos = m.end()
            continue
        raise PresentationError("unexpected character %r" % ch, line_no, col)
    return tokens


class _ExprParser:
    def __init__(self, tokens, line_no, end_col, gen_index):
        self.tokens = tokens
        self.i = 0
        self.line = line_no
        self.end_col = end_col
        self.gen_index = gen_index

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        t = self.peek()
        if t is not None:
            self.i += 1
        return t

    def fail(self, message, tok=None):
        col = tok[2] if tok is not None else self.end_col
        raise PresentationError(message, self.line, col)

    def parse(self) -> FreeElement:
        total = FreeElement.zero()
        first = True
        while True:
            tok = self.peek()
            if tok is None:
                if first:
                    self.fail("empty relation")
                break
            sign = 1
            if tok[0] in "+-":
                if tok[0] == "-":
                    sign = -1
                self.take()
            elif not first:
                self.fail("expected '+' or '-' between terms", tok)
            total = total + self.term() * sign
            first = False
        return total

    def term(self) -> FreeElement:
        tok = self.peek()
        if tok is None:
            self.fail("expected a term")
        if tok[0] == "int":
            coeff = self.rational()
            nxt = self.peek()
            if nxt is None or nxt[0] in "+-":
                return FreeElement({(): coeff})
            if nxt[0] == "*":
                self.take()
                nxt = self.peek()
                if nxt is None or nxt[0] != "name":
                    self.fail("expected a generator after '*'", nxt)
            elif nxt[0] != "name":
                self.fail("unexpected token after coefficient", nxt)
            return self.word() * coeff
        if tok[0] == "name":
            return self.word()
        self.fail("expected a coefficient or a generator", tok)

    def rational(self) -> Fraction:
        tok = self.take()
        numer = int(tok[1])
        nxt = self.peek()
        if nxt is not None and nxt[0] == "/":
            self.take()
            den_tok = self.take()
            if den_tok is None or den_tok[0] != "int":
                self.fail("malformed rational: expected a denominator", den_tok or tok)
            denom = int(den_tok[1])
            if denom == 0:
                self.fail("malformed rational: zero denominator", den_tok)
            return Fraction(numer, denom)
        return Fraction(numer)

    def word(self) -> FreeElement:
        letters = [self.letter()]
        powered = False
        while True:
            tok = self.peek()
            if tok is None or tok[0] in "+-":
                break
            if tok[0] == "*":
                self.take()
                nxt = self.peek()
                if nxt is None or nxt[0] != "name":
                    self.fail("expected a generator after '*'", nxt or tok)
                letters.append(self.letter())
                powered = False
            elif tok[0] == "^":
                if powered:
                    self.fail("repeated exponent", tok)
                self.take()
                exp_tok = self.take()
                if exp_tok is None or exp_tok[0] != "int":
                    self.fail("expected a nonnegative integer exponent", exp_tok or tok)
                exp = int(exp_tok[1])
                last = letters.pop()
                letters.extend([last] * exp)
                powered = True
            else:
                self.fail("unexpected token inside a word", tok)
        return FreeElement.word(letters)

    def letter(self) -> int:
        tok = self.take()
        if tok is None or tok[0] != "name":
            self.fail("expected a generator name", tok)
        idx = self.gen_index.get(tok[1])
        if idx is None:
            self.fail("undeclared generator %r" % tok[1], tok)
        return idx


def parse_presentation(text: str, name: str | None = None) -> Presentation:
    """Parse presentation text; raises PresentationError with line/column."""
    generators = None
    gen_index: dict = {}
    relations = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if stripped.startswith("generators:"):
            if generators is not None:
                raise PresentationError("duplicate generators line", line_no, indent + 1)
            names = stripped[len("generators:"):].replace(",", " ").split()
            for nm in names:
                if not _NAME_RE.fullmatch(nm):
                    raise PresentationError("bad generator name %r" % nm, line_no,
                                            line.index(nm) + 1)
                if nm in gen_index:
                    raise PresentationError("duplicate generator %r" % nm, line_no,
                                            line.index(nm) + 1)
                gen_index[nm] = len(gen_index)
            generators = tuple(gen_index)
        elif stripped.startswith("relation:"):
            if generators is None:
                raise PresentationError("relation before the generators line", line_no, indent + 1)
            body_start = line.index("relation:") + len("relation:")
            body = line[body_start:]
            tokens = _tokenize(body, line_no, body_start + 1)
            parser = _ExprParser(tokens, line_no, len(line.rstrip()) + 1, gen_index)
            rel = parser.parse()
            if rel.is_zero:
                warnings.warn("relation on line %d is zero and was dropped" % line_no,
                              ZeroRelationWarning, stacklevel=2)
            else:
                relations.append(rel)
        else:
            raise PresentationError("expected 'generators:' or 'relation:'", line_no, indent + 1)
    if generators is None:
        raise PresentationError("missing generators line", 1, 1)
    return Presentation(generators, tuple(relations), name)


def format_word(word: Word, names: Sequence[str]) -> str:
    """The word with its runs as powers, like x*y^2*x."""
    runs = [(letter, len(list(group))) for letter, group in groupby(word)]
    return "*".join(names[l] if e == 1 else "%s^%d" % (names[l], e) for l, e in runs)


def format_element(e: FreeElement, names: Sequence[str]) -> str:
    # longest words first, the way relations are usually written
    return signed_sum((c, format_word(w, names)) for w, c in reversed(e.sorted_terms()))


def format_presentation(p: Presentation) -> str:
    """Canonical text for a presentation; parse(format(p)) round-trips."""
    lines = ["generators: " + " ".join(p.generators)]
    lines += ["relation: " + format_element(r, p.generators) for r in p.relations]
    return "\n".join(lines) + "\n"
