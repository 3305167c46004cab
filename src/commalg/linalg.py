"""Exact linear algebra over a coefficient field, on sparse columns.

``reduce_columns`` is the one elimination: it reduces ``{row: scalar}`` columns
from the left into the pivot columns, the rank and the canonical null vectors.
``Mat`` stores such columns and takes its rank, rref, null space and solutions
from it; ``_image``, a matrix of such columns applied to one, is the one
product, and no operation builds a dense row.  Pivots are chosen
by position, never by magnitude; an entry is zero by its truth value.  Rational
entries stay ints until the one division, a pivot inverse by ``field.div``,
leaves a remainder: a reduction whose pivots are all 1 or -1 builds no Fraction.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

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
    """An nrows x ncols matrix acting on column vectors, stored as its sparse columns
    {row: scalar}, zero-free and in ascending row order.  ``rows`` is a dense copy
    built when read, so writing to it leaves the matrix as it was."""

    __slots__ = ("nrows", "ncols", "columns", "field")

    def __init__(self, nrows: int, ncols: int, rows=None, field=QQ):
        rows = None if rows is None else [list(r) for r in rows]
        if min(nrows, ncols) < 0 or rows is not None and (
                len(rows) != nrows or any(len(r) != ncols for r in rows)):
            raise InternalInvariantError("matrix shape mismatch")
        self.nrows, self.ncols, self.field = nrows, ncols, field
        self.columns = [{i: x for i, r in enumerate(rows or ()) if (x := field.element(r[j]))}
                        for j in range(ncols)]

    @classmethod
    def _of_columns(cls, columns: Sequence[Mapping], nrows: int, field) -> "Mat":
        """The matrix over sparse ``columns`` of field elements, kept zero-free by ascending row."""
        if nrows < 0:
            raise InternalInvariantError("matrix shape mismatch")
        out = cls.__new__(cls)
        out.nrows, out.ncols, out.field = nrows, len(columns), field
        out.columns = [{i: col[i] for i in sorted(col) if col[i]} for col in columns]
        return out

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Mat":
        return cls._of_columns([{j: field.one} for j in range(n)], n, field)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int, field=QQ) -> "Mat":
        if any(len(col) != nrows for col in columns):
            raise InternalInvariantError("column length mismatch")
        return cls._of_columns([{i: field.element(x) for i, x in enumerate(col)}
                                for col in columns], nrows, field)

    @property
    def rows(self) -> list[list]:
        zero = self.field.zero
        return [[col.get(i, zero) for col in self.columns] for i in range(self.nrows)]

    def column(self, j: int) -> list:
        return [self.columns[j].get(i, self.field.zero) for i in range(self.nrows)]

    def take_rows(self, indices: Sequence[int]) -> "Mat":
        return Mat._of_columns([{k: col[i] for k, i in enumerate(indices) if i in col}
                                for col in self.columns], len(indices), self.field)

    def hstack(self, other: "Mat") -> "Mat":
        if other.nrows != self.nrows:
            raise InternalInvariantError("hstack with differing row counts")
        field = self.field
        right = other.columns if other.field == field else [
            {i: field.element(x) for i, x in col.items()} for col in other.columns]
        return Mat._of_columns(self.columns + right, self.nrows, field)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise InternalInvariantError("matmul shape mismatch")
        return Mat._of_columns([_image(self.columns, col) for col in other.columns],
                               self.nrows, self.field)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.nrows, self.ncols, self.columns) == (other.nrows, other.ncols, other.columns)

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not any(self.columns)

    def rank(self) -> int:
        return len(reduce_columns(dict(enumerate(self.columns)), self.field)[0])

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Row r holds each column's coordinate on pivot column r."""
        pivots, nulls = reduce_columns(dict(enumerate(self.columns)), self.field, relations=True)
        at = {p: r for r, p in enumerate(pivots)}
        columns = [{at[p]: -x for p, x in nulls[c].items() if p != c} if c in nulls
                   else {at[c]: self.field.one} for c in range(self.ncols)]
        return Mat._of_columns(columns, self.nrows, self.field), tuple(pivots)

    def null_space(self) -> tuple["Mat", tuple[int, ...]]:
        """Null-space basis columns and the free columns of the rref; the basis
        is the identity on the free rows, which hold a null vector's coordinates."""
        nulls = reduce_columns(dict(enumerate(self.columns)), self.field, relations=True)[1]
        return Mat._of_columns(list(nulls.values()), self.ncols, self.field), tuple(nulls)

    def solve(self, rhs: "Mat") -> "Mat":
        """X with self @ X = rhs; raises if the system is inconsistent."""
        if rhs.nrows != self.nrows:
            raise InternalInvariantError("solve shape mismatch")
        red, pivots = self.hstack(rhs).rref()
        if pivots and pivots[-1] >= self.ncols:
            raise InternalInvariantError("inconsistent linear system")
        return Mat._of_columns([{pivots[r]: x for r, x in col.items()}
                                for col in red.columns[self.ncols:]], self.ncols, self.field)
