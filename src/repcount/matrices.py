"""Tiny immutable matrices over whatever coefficients support ring arithmetic.

Entries can be ints, Fractions, or Polynomials (anything with +, -, * and a
sensible zero test through bool); the package uses these both for generic
matrices with polynomial entries and for concrete rational representations
in tests.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Any]]):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.rows = rows

    @staticmethod
    def identity(d: int, one: Any = 1, zero: Any = 0) -> "Matrix":
        return Matrix([[one if i == j else zero for j in range(d)] for i in range(d)])

    @staticmethod
    def zeros(d: int, zero: Any = 0) -> "Matrix":
        return Matrix([[zero] * d for _ in range(d)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij) -> Any:
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("matrix shapes do not match")
            cols = other.ncols
            out = []
            for ra in self.rows:
                row = []
                for j in range(cols):
                    acc = None
                    for k, a in enumerate(ra):
                        term = a * other.rows[k][j]
                        acc = term if acc is None else acc + term
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        return Matrix([[a * other for a in r] for r in self.rows])

    def __rmul__(self, other):
        return Matrix([[other * a for a in r] for r in self.rows])

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        acc = None
        for i in range(self.nrows):
            acc = self.rows[i][i] if acc is None else acc + self.rows[i][i]
        return acc

    @property
    def is_zero(self) -> bool:
        return not any(bool(a) for r in self.rows for a in r)

    def map(self, fn: Callable[[Any], Any]) -> "Matrix":
        return Matrix([[fn(a) for a in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix(%s)" % "; ".join(", ".join(repr(a) for a in r) for r in self.rows)


def trace_of_product(a: Matrix, b: Matrix):
    """tr(a*b) without forming the product matrix."""
    if a.ncols != b.nrows or a.nrows != b.ncols:
        raise ValueError("matrix shapes do not match")
    acc = None
    for i in range(a.nrows):
        for k in range(a.ncols):
            term = a.rows[i][k] * b.rows[k][i]
            acc = term if acc is None else acc + term
    return acc
