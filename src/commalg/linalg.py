"""Dense exact linear algebra over a coefficient field.

Matrices are small here (tens of rows), so plain row reduction with exact
arithmetic is enough.  Pivots are chosen as the first nonzero entry, never
by magnitude: there is no rounding to stabilize.  An entry is tested for
zero by its truth value, which both coefficient fields define.  Rational
entries stay ints until the one division, a pivot inverse by ``field.div``,
leaves a remainder: a reduction whose pivots are all 1 or -1 builds no
Fraction.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalInvariantError
from .fields import QQ

__all__ = ["Mat"]


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

    def take(self, rows: Sequence[int], cols: Sequence[int]) -> "Mat":
        return Mat._owning([[self.rows[i][j] for j in cols] for i in rows], len(cols), self.field)

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
        out = Mat(self.nrows, other.ncols, field=self.field)
        if not self.ncols:
            return out
        for row, acc in zip(self.rows, out.rows):
            for x, other_row in zip(row, other.rows):
                if not x:
                    continue
                for j, y in enumerate(other_row):
                    if y:
                        acc[j] = acc[j] + x * y if acc[j] else x * y
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def _eliminate(self) -> tuple[list[list], list[int]]:
        """Reduced row echelon form of a copy; returns (rows, pivot columns)."""
        rows = [list(r) for r in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols if self.nrows else 0):
            for pivot in range(r, self.nrows):
                if rows[pivot][c]:
                    break
            else:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            if rows[r][c] != self.field.one:  # pivots of 1 are common: 0/1 inclusions
                inv = self.field.div(self.field.one, rows[r][c])
                rows[r] = [x * inv if x else x for x in rows[r]]
            for i in range(self.nrows):
                if i != r and rows[i][c]:
                    factor = rows[i][c]
                    rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        rows, pivots = self._eliminate()
        return Mat._owning(rows, self.ncols, self.field), tuple(pivots)

    def null_space(self) -> tuple["Mat", tuple[int, ...]]:
        """Null-space basis columns and the free columns of the rref; the basis
        is the identity on the free rows, which hold a null vector's coordinates."""
        rows, pivots = self._eliminate()
        free = tuple(sorted(set(range(self.ncols)).difference(pivots)))
        basis = Mat(self.ncols, len(free), field=self.field)
        for k, c in enumerate(free):
            basis.rows[c][k] = self.field.one
            for r, pc in enumerate(pivots):
                basis.rows[pc][k] = -rows[r][c]
        return basis, free

    def solve(self, rhs: "Mat") -> "Mat":
        """X with self @ X = rhs; raises if the system is inconsistent."""
        if rhs.nrows != self.nrows:
            raise InternalInvariantError("solve shape mismatch")
        aug = self.hstack(rhs)
        rows, pivots = aug._eliminate()
        for r in range(len(pivots)):
            if pivots[r] >= self.ncols:
                raise InternalInvariantError("inconsistent linear system")
        for r in range(len(pivots), self.nrows):
            if any(rows[r][self.ncols:]):
                raise InternalInvariantError("inconsistent linear system")
        out = Mat(self.ncols, rhs.ncols, field=self.field)
        for r, pc in enumerate(pivots):
            for j in range(rhs.ncols):
                out.rows[pc][j] = rows[r][self.ncols + j]
        return out
