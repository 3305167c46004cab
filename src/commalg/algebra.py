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
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Mapping

from .errors import InternalInvariantError, QuiverError
from .fields import QQ
from .quiver import Path, Quiver, compose
from .structure import (
    _block_values,
    condensation,
    path_components,
    reachability,
    topological_component_order,
)

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


@dataclass(frozen=True)
class CoefficientFunction:
    """Multiplicative path weights: f(path) is the product of its arrow weights.

    Vertices (length-zero paths) get 1.  Every weight must be nonzero.
    """

    weights: Mapping[str, Fraction]

    def __post_init__(self):
        cleaned = {}
        for name, value in self.weights.items():
            value = Fraction(value)
            if value == 0:
                raise QuiverError(f"arrow {name!r} has zero weight")
            cleaned[name] = value
        object.__setattr__(self, "weights", cleaned)

    @classmethod
    def trivial(cls) -> "CoefficientFunction":
        return cls({})

    @classmethod
    def from_quiver(cls, quiver: Quiver) -> "CoefficientFunction":
        return cls(dict(quiver.weights))

    def value(self, path: Path) -> Fraction:
        out = Fraction(1)
        for name in path.arrows:
            out *= self.weights.get(name, Fraction(1))
        return out

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.weights.values())


def quasi_structure_constant(f: CoefficientFunction, p: Path, q: Path) -> Fraction:
    """f(p) f(q) / f(pq); identically 1 for multiplicative coefficients."""
    pq = compose(p, q)
    return f.value(p) * f.value(q) / f.value(pq)


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
        self.partition = path_components(quiver)
        base_pattern = reachability(quiver)
        self.condensation = condensation(self.partition, base_pattern)
        self.component_order = topological_component_order(self.condensation)
        self.order = tuple(
            v
            for ci in self.component_order
            for v in self.partition.components[ci]
        )
        self.pattern = base_pattern.reordered(self.order)
        self.block_sizes = tuple(
            len(self.partition.components[ci]) for ci in self.component_order
        )
        self.block_pattern = tuple(
            tuple(self.condensation.relation[ci][cj] for cj in self.component_order)
            for ci in self.component_order
        )
        self._position = {v: i for i, v in enumerate(self.order)}
        self._verify_block_form()

    def _verify_block_form(self) -> None:
        """Check the block shape of the pattern really holds; bugs only."""
        offsets = [0, *accumulate(self.block_sizes)]
        masks = [((1 << d) - 1) << offsets[b] for b, d in enumerate(self.block_sizes)]
        rows = self.pattern.rows
        for bi in range(len(masks)):
            values = _block_values(rows[offsets[bi]:offsets[bi + 1]], masks)
            for bj, value in enumerate(values):
                if value is None:
                    raise InternalInvariantError(
                        f"block ({bi}, {bj}) is neither all-true nor all-false"
                    )
                if bi == bj and not value:
                    raise InternalInvariantError(f"diagonal block {bi} is not full")
                if value != self.block_pattern[bi][bj]:
                    raise InternalInvariantError(
                        f"block ({bi}, {bj}) disagrees with the component pattern"
                    )
                if value and bi > bj:
                    raise InternalInvariantError(
                        "pattern is not block upper triangular under the "
                        "topological component order"
                    )
                if value and bi != bj and self.block_pattern[bj][bi]:
                    raise InternalInvariantError(
                        f"blocks ({bi}, {bj}) and ({bj}, {bi}) are both nonzero"
                    )

    def position(self, v: str) -> int:
        try:
            return self._position[v]
        except KeyError:
            raise QuiverError(f"unknown vertex {v!r}") from None

    def hom_dimension(self, source: str, target: str) -> int:
        return int(self.pattern.bits[self.position(source)][self.position(target)])

    def total_dimension(self) -> int:
        return self.pattern.true_count()

    def element(self, entries: Mapping[tuple[str, str], object]) -> "AlgebraElement":
        """Element with the given (source, target) -> scalar support."""
        packed: dict[tuple[int, int], object] = {}
        for (v, w), scalar in entries.items():
            i, j = self.position(v), self.position(w)
            if not self.pattern.bits[i][j]:
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
        if not self.pattern.bits[i][j]:
            raise QuiverError(
                f"no basis element at ({source!r}, {target!r}): Hom space is zero"
            )
        return AlgebraElement(self, {(i, j): self.field.one})

    def multiply(self, x: "AlgebraElement", y: "AlgebraElement") -> "AlgebraElement":
        if x.algebra is not self or y.algebra is not self:
            raise QuiverError("elements belong to a different algebra")
        zero = self.field.zero
        acc: dict[tuple[int, int], object] = {}
        for (i, k), xv in x.entries.items():
            for (k2, j), yv in y.entries.items():
                if k != k2:
                    continue
                current = acc.get((i, j), zero)
                acc[(i, j)] = current + xv * yv
        acc = {key: v for key, v in acc.items() if v != zero}
        for (i, j) in acc:
            # closure under multiplication comes from transitivity of the
            # pattern; falling out of it means the construction is broken
            if not self.pattern.bits[i][j]:
                raise InternalInvariantError(
                    f"product has support ({i}, {j}) outside the pattern"
                )
        return AlgebraElement(self, acc)

    def __repr__(self) -> str:
        return (
            f"CommutingAlgebra({self.quiver.name!r}, dim {self.total_dimension()}, "
            f"blocks {self.block_sizes})"
        )


@dataclass(frozen=True)
class AlgebraElement:
    """Sparse element; keys are positions in the algebra's vertex order."""

    algebra: CommutingAlgebra
    entries: Mapping[tuple[int, int], object]

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


@dataclass(frozen=True)
class NormalizedBasisEntry:
    """Change-of-basis record: unit(source, target) = scale * class(path)."""

    source: str
    target: str
    path: Path
    scale: Fraction


@dataclass(frozen=True)
class QuasiCommutingAlgebra:
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
    algebra = CommutingAlgebra(quiver, field)
    entries = []
    for v in quiver.vertices:
        shortest = _shortest_paths_from(quiver, v)
        for w in quiver.vertices:
            if algebra.hom_dimension(v, w):
                path = shortest[w]
                entries.append(NormalizedBasisEntry(v, w, path, f.value(path)))
    return QuasiCommutingAlgebra(algebra, tuple(entries))
