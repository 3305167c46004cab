"""Exact linear algebra over a coefficient field, on sparse columns.

``reduce_columns`` is the one elimination: it reduces ``{row: scalar}`` columns
from the left into the pivot columns, the rank and the canonical null vectors,
and ``Mat`` takes its rank, rref, null space and solutions from it; ``_image``,
a matrix of such columns applied to one, is the one product.  Pivots are chosen
by position, never by magnitude; an entry is zero by its truth value.  Rational
entries stay ints until the one division, a pivot inverse by ``field.div``,
leaves a remainder: a reduction whose pivots are all 1 or -1 builds no Fraction.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import InternalInvariantError
from .fields import QQ

__all__ = ["Mat", "reduce_columns"]


def reduce_columns(columns: Mapping, field=QQ, relations: bool = False) -> tuple[list, dict]:
    """Reduce ``columns``, labels to sparse columns {row: scalar}, in their order.

    Returns the labels of the pivot columns, those outside the span of the
    columns before them, and with ``relations`` one null vector per other
    column c, keyed by c: e_c minus c's coordinates in the pivot columns, as
    {label: scalar}.  A pivot column is kept scaled to 1 at its largest row, its lead.
    """
    one, kept, pivots, nulls = field.one, {}, [], {}  # kept: leading row -> (column, relation)
    for c, column in columns.items():
        r, rel = dict(column), {c: one}
        while r and (lead := max(r)) in kept:
            a = r[lead]
            for acc, w in zip((r, rel) if relations else (r,), kept[lead]):
                for i, b in w.items():  # acc -= a * w, dropping the entries that cancel
                    x = acc.get(i)
                    if x is None:
                        acc[i] = -(a * b)
                    elif x := x - a * b:
                        acc[i] = x
                    else:
                        del acc[i]
        if not r:
            nulls[c] = rel
            continue
        if r[lead] != one:  # pivots of 1 are common: 0/1 inclusions
            inv = field.div(one, r[lead])
            r, rel = ({i: x * inv for i, x in d.items()} for d in (r, rel))
        kept[lead] = (r, rel)
        pivots.append(c)
    return pivots, nulls if relations else {}


def _image(columns: Mapping, vector: Mapping) -> dict:
    """``vector`` under the matrix of sparse ``columns``: the sum of vector[i] * columns[i]."""
    out = {}
    for i, a in vector.items():
        for r, b in columns[i].items():
            out[r] = out[r] + a * b if r in out else a * b
    return out


class Mat:
    """An nrows x ncols matrix acting on column vectors."""

    __slots__ = ("nrows", "ncols", "rows", "field")

    def __init__(self, nrows: int, ncols: int, rows=None, field=QQ):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        if rows is None:
            self.rows = [[field.zero] * ncols for _ in range(nrows)]
        else:
            rows = [list(r) for r in rows]
            if len(rows) != nrows or any(len(r) != ncols for r in rows):
                raise InternalInvariantError("matrix shape mismatch")
            self.rows = [[field.element(x) for x in r] for r in rows]

    @classmethod
    def _owning(cls, rows: list[list], ncols: int, field) -> "Mat":
        """A matrix over rows this module built from elements of ``field``."""
        out = cls.__new__(cls)
        out.nrows, out.ncols, out.rows, out.field = len(rows), ncols, rows, field
        return out

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Mat":
        one, zero = field.one, field.zero
        return cls._owning([[one if i == j else zero for j in range(n)] for i in range(n)], n, field)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int, field=QQ) -> "Mat":
        out = cls(nrows, len(columns), field=field)
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise InternalInvariantError("column length mismatch")
            for i, x in enumerate(col):
                out.rows[i][j] = field.element(x)
        return out

    def column(self, j: int) -> list:
        return [self.rows[i][j] for i in range(self.nrows)]

    def take_rows(self, indices: Sequence[int]) -> "Mat":
        return Mat._owning([list(self.rows[i]) for i in indices], self.ncols, self.field)

    def hstack(self, other: "Mat") -> "Mat":
        if other.nrows != self.nrows:
            raise InternalInvariantError("hstack with differing row counts")
        rows = [a + b for a, b in zip(self.rows, other.rows)]
        if other.field != self.field:
            return Mat(self.nrows, self.ncols + other.ncols, rows, field=self.field)
        return Mat._owning(rows, self.ncols + other.ncols, self.field)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise InternalInvariantError("matmul shape mismatch")
        left, zero = self._columns(), self.field.zero
        out = [_image(left, col) for col in other._columns().values()]
        return Mat._owning([[col.get(i, zero) for col in out] for i in range(self.nrows)],
                           other.ncols, self.field)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def _columns(self) -> dict[int, dict]:
        return {c: {i: r[c] for i, r in enumerate(self.rows) if r[c]} for c in range(self.ncols)}

    def rank(self) -> int:
        return len(reduce_columns(self._columns(), self.field)[0])

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Row r holds each column's coordinate on pivot column r."""
        pivots, nulls = reduce_columns(self._columns(), self.field, relations=True)
        out = Mat(self.nrows, self.ncols, field=self.field)
        for row, p in zip(out.rows, pivots):
            row[p] = self.field.one
            for c, rel in nulls.items():
                if p in rel:
                    row[c] = -rel[p]
        return out, tuple(pivots)

    def null_space(self) -> tuple["Mat", tuple[int, ...]]:
        """Null-space basis columns and the free columns of the rref; the basis
        is the identity on the free rows, which hold a null vector's coordinates."""
        nulls = reduce_columns(self._columns(), self.field, relations=True)[1]
        rows = [[rel.get(i, self.field.zero) for rel in nulls.values()] for i in range(self.ncols)]
        return Mat._owning(rows, len(nulls), self.field), tuple(nulls)

    def solve(self, rhs: "Mat") -> "Mat":
        """X with self @ X = rhs; raises if the system is inconsistent."""
        if rhs.nrows != self.nrows:
            raise InternalInvariantError("solve shape mismatch")
        red, pivots = self.hstack(rhs).rref()
        if pivots and pivots[-1] >= self.ncols:
            raise InternalInvariantError("inconsistent linear system")
        out = Mat(self.ncols, rhs.ncols, field=self.field)
        for r, p in enumerate(pivots):
            out.rows[p] = red.rows[r][self.ncols:]
        return out
