"""The commuting algebra of a quiver.

Identifying all parallel paths of a quiver collapses its path algebra to a
finite-dimensional algebra that only remembers which vertex pairs are joined
by some path.  Concretely: pick a consistent vertex ordering, and the result
is the span of matrix units e(v, w) over the reachability pattern, with
e(v,w) e(w,u) = e(v,u) whenever the entries exist.  This module builds that
algebra and verifies its block structure.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from numbers import Rational

from .errors import InternalInvariantError, QuiverError, _Record, _of_rows
from .fields import QQ
from .quiver import Path, Quiver, _exact_weights, compose
from .structure import ReachabilityPattern, _matrix, reachability, topological_component_order

__all__ = [
    "CoefficientFunction",
    "CommutingAlgebra",
    "AlgebraElement",
    "NormalizedBasisEntry",
    "QuasiCommutingAlgebra",
    "commuting_algebra",
    "quasi_commuting_algebra",
    "quasi_structure_constant",
]


class CoefficientFunction(_Record):
    """Multiplicative path weights: f(path) is the product of its arrow weights.

    Vertices (length-zero paths) get 1.  Every weight must be nonzero.
    """

    weights: Mapping[str, Rational]

    def __post_init__(self):
        self.__dict__["weights"] = _exact_weights(self.weights)

    def check_arrows(self, quiver: Quiver) -> None:
        """Raise QuiverError if a weight names an arrow ``quiver`` lacks."""
        _exact_weights(self.weights, {a.name for a in quiver.arrows})

    @classmethod
    def trivial(cls) -> "CoefficientFunction":
        return cls({})

    @classmethod
    def from_quiver(cls, quiver: Quiver) -> "CoefficientFunction":
        return cls(dict(quiver.weights))

    def value(self, path: Path) -> Rational:
        """The product of the weights: an ``int`` when every weight is one."""
        out = QQ.one
        weights = self.weights
        for name in path.arrows:
            weight = weights.get(name)  # an absent weight is 1
            if weight is not None:
                out *= weight
        return out

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.weights.values())


def quasi_structure_constant(f: CoefficientFunction, p: Path, q: Path):
    """f(p) f(q) / f(pq) in QQ; identically 1 for multiplicative coefficients."""
    pq = compose(p, q)
    return QQ.div(f.value(p) * f.value(q), f.value(pq))


class CommutingAlgebra:
    """Span of matrix units over the reachability pattern of a quiver.

    Vertices are put in a consistent order (components contiguous and
    topologically sorted), so the supporting pattern is block upper
    triangular: full blocks on the diagonal, all-true or all-false blocks
    off the diagonal.
    """

    def __init__(self, quiver: Quiver, field=QQ):
        self.quiver = quiver
        self.field = field
        base_pattern = reachability(quiver)
        self.partition = base_pattern.partition
        self.condensation = cond = base_pattern.condensation
        self.component_order = order = topological_component_order(cond)
        blocks = [self.partition.components[ci] for ci in order]
        self.order = tuple(v for block in blocks for v in block)
        sizes = self.block_sizes = tuple(map(len, blocks))
        offsets = tuple(accumulate(sizes, initial=0))
        position = {ci: b for b, ci in enumerate(order)}  # component -> block
        cond_rows, closure, index = cond.rows, base_pattern.rows, quiver.vertex_index
        # each block's row over blocks and over vertices, one OR per condensation
        # edge, sinks first, checked as it is written (bugs only): its block is
        # reflexive in the condensation, and it holds no earlier block, as many
        # blocks as its condensation row and vertices as its first vertex's closure row
        up = [1 << b for b in range(len(order))]
        vertex_rows = [(1 << end) - (1 << start) for start, end in zip(offsets, offsets[1:])]
        for b in reversed(range(len(order))):
            ci = order[b]
            for cj in cond._succ[ci]:
                up[b] |= up[position[cj]]
                vertex_rows[b] |= vertex_rows[position[cj]]
            if not cond_rows[ci] >> ci & 1:
                raise InternalInvariantError(f"diagonal block {b} is not full")
            if vertex_rows[b] & (1 << offsets[b]) - 1:
                raise InternalInvariantError("pattern is not block upper triangular "
                                             "under the topological component order")
            if (up[b].bit_count(), vertex_rows[b].bit_count()) != (
                    cond_rows[ci].bit_count(), closure[index[blocks[b][0]]].bit_count()):
                raise InternalInvariantError(f"block row {b} disagrees with the closure")
        self.block_rows = tuple(up)  # the condensation in block order
        rows = tuple(row for row, d in zip(vertex_rows, sizes) for _ in range(d))
        self.pattern = _of_rows(ReachabilityPattern, order=self.order, rows=rows)

    @cached_property
    def block_pattern(self) -> tuple[tuple[bool, ...], ...]:
        return _matrix(self.block_rows)

    def over(self, field) -> "CommutingAlgebra":
        """The same algebra with scalars in ``field``; nothing is recomputed."""
        return _of_rows(type(self), **{**vars(self), "field": field})

    def position(self, v: str) -> int:
        try:
            return self.pattern.index[v]
        except KeyError:
            raise QuiverError(f"unknown vertex {v!r}") from None

    def hom_dimension(self, source: str, target: str) -> int:
        return self.pattern.rows[self.position(source)] >> self.position(target) & 1

    def total_dimension(self) -> int:
        return self.pattern.true_count()

    def element(self, entries: Mapping[tuple[str, str], object]) -> "AlgebraElement":
        """Element with the given (source, target) -> scalar support."""
        packed: dict[tuple[int, int], object] = {}
        for (v, w), scalar in entries.items():
            i, j = self.position(v), self.position(w)
            if not self.pattern.rows[i] >> j & 1:
                raise QuiverError(
                    f"entry ({v!r}, {w!r}) is outside the support pattern"
                )
            value = self.field.element(scalar)
            if value != self.field.zero:
                packed[(i, j)] = value
        return AlgebraElement(self, packed)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(
            self, {(i, i): self.field.one for i in range(len(self.order))}
        )

    def basis_element(self, source: str, target: str) -> "AlgebraElement":
        """The matrix unit e(source, target); the Hom space must be nonzero."""
        i, j = self.position(source), self.position(target)
        if not self.pattern.rows[i] >> j & 1:
            raise QuiverError(
                f"no basis element at ({source!r}, {target!r}): Hom space is zero"
            )
        return AlgebraElement(self, {(i, j): self.field.one})

    def multiply(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        if x.algebra is not self or y.algebra is not self:
            raise QuiverError("elements belong to a different algebra")
        zero, y_rows = self.field.zero, y._by_row
        acc: dict[tuple[int, int], object] = {}
        for (i, k), xv in x.entries.items():
            for j, yv in y_rows.get(k, ()):
                acc[(i, j)] = acc.get((i, j), zero) + xv * yv
        acc = {key: v for key, v in acc.items() if v != zero}
        for (i, j) in acc:
            # closure under multiplication comes from transitivity of the
            # pattern; falling out of it means the construction is broken
            if not self.pattern.rows[i] >> j & 1:
                raise InternalInvariantError(
                    f"product has support ({i}, {j}) outside the pattern"
                )
        return AlgebraElement(self, acc)

    def __repr__(self) -> str:
        return (
            f"CommutingAlgebra({self.quiver.name!r}, dim {self.total_dimension()}, "
            f"blocks {self.block_sizes})"
        )


class AlgebraElement(_Record):
    """Sparse element; keys are positions in the algebra's vertex order."""

    algebra: CommutingAlgebra
    entries: Mapping[tuple[int, int], object]

    def __init__(self, algebra, entries):
        self.__dict__.update(algebra=algebra, entries=entries)

    @cached_property
    def _by_row(self) -> dict[int, list[tuple[int, object]]]:
        """The entries grouped by row, once per element: a product reads its right factor so."""
        out: dict[int, list[tuple[int, object]]] = {}
        for (k, j), v in self.entries.items():
            out.setdefault(k, []).append((j, v))
        return out

    def support(self) -> frozenset[tuple[str, str]]:
        order = self.algebra.order
        return frozenset((order[i], order[j]) for i, j in self.entries)

    def coefficient(self, source: str, target: str):
        key = (self.algebra.position(source), self.algebra.position(target))
        return self.entries.get(key, self.algebra.field.zero)

    def is_zero(self) -> bool:
        return not self.entries

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self.algebra.multiply(self, other)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if other.algebra is not self.algebra:
            raise QuiverError("elements belong to a different algebra")
        zero = self.algebra.field.zero
        acc = dict(self.entries)
        for key, v in other.entries.items():
            acc[key] = acc.get(key, zero) + v
        return AlgebraElement(
            self.algebra, {k: v for k, v in acc.items() if v != zero}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and dict(self.entries) == dict(other.entries)

    def __repr__(self) -> str:
        order = self.algebra.order
        parts = [
            f"e({order[i]},{order[j]})*{v}" for (i, j), v in sorted(self.entries.items())
        ]
        return " + ".join(parts) if parts else "0"


def commuting_algebra(quiver: Quiver, field=QQ) -> CommutingAlgebra:
    """Build the commuting algebra of a quiver over the given field."""
    return CommutingAlgebra(quiver, field)


class NormalizedBasisEntry(_Record):
    """Change-of-basis record: unit(source, target) = scale * class(path)."""

    source: str
    target: str
    path: Path
    scale: Fraction


class QuasiCommutingAlgebra(_Record):
    """A commuting algebra twisted by coefficients, plus the untwisting.

    Multiplicative coefficients never change the algebra: rescaling each
    path class p by f(p) carries the twisted relations to the plain ones.
    ``normalization`` records, for each supported vertex pair, a canonical
    path (shortest, first in length-lex order) and the scale f(path) such
    that the matrix unit equals scale * class(path).
    """

    algebra: CommutingAlgebra
    normalization: tuple[NormalizedBasisEntry, ...]

    def entry(self, source: str, target: str) -> NormalizedBasisEntry:
        for e in self.normalization:
            if e.source == source and e.target == target:
                return e
        raise QuiverError(f"no normalized unit at ({source!r}, {target!r})")


def _shortest_paths_from(quiver: Quiver, source: str) -> dict[str, Path]:
    """First BFS arrival per target, expanding arrows in declaration order."""
    start = quiver.vertex_path(source)
    found = {source: start}
    queue = deque([start])
    while queue:
        path = queue.popleft()
        for arrow in quiver.arrows_from[path.end]:
            if arrow.target not in found:
                ext = Path(source, path.arrows + (arrow.name,), arrow.target)
                found[arrow.target] = ext
                queue.append(ext)
    return found


def quasi_commuting_algebra(
    quiver: Quiver, f: CoefficientFunction, field=QQ
) -> QuasiCommutingAlgebra:
    """Commuting algebra with coefficient twist f, and its change of basis."""
    f.check_arrows(quiver)
    algebra = CommutingAlgebra(quiver, field)
    entries = []
    for v in quiver.vertices:
        shortest = _shortest_paths_from(quiver, v)
        for w in quiver.vertices:
            if algebra.hom_dimension(v, w):
                path = shortest[w]
                entries.append(NormalizedBasisEntry(v, w, path, f.value(path)))
    return QuasiCommutingAlgebra(algebra, tuple(entries))
