"""Reachability structure of a quiver: components, closure, condensation.

Every order in the package is stored as row bitsets (bit j of row i means
i <= j) and handled by the private core at the top of this module.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InternalInvariantError, QuiverError
from .quiver import Quiver

__all__ = [
    "ComponentPartition",
    "ReachabilityPattern",
    "CondensationOrder",
    "path_components",
    "reachability",
    "consistent_ordering",
    "condensation",
    "topological_component_order",
    "longest_chain",
]

Rows = tuple[int, ...]


def _rows(matrix: Sequence[Sequence[bool]], n: int, error: type, what: str) -> Rows:
    """Row bitsets of an n x n bool matrix."""
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise error(f"{what} matrix is not {n}x{n}")
    return tuple(sum(1 << j for j, b in enumerate(row) if b) for row in matrix)


def _matrix(rows: Rows) -> tuple[tuple[bool, ...], ...]:
    n = len(rows)
    return tuple(tuple(c == "1" for c in reversed(format(r, f"0{n}b"))) for r in rows)


def _bits(row: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _check_preorder(rows: Rows, error: type, what: str, antisymmetric: bool = False,
                    names: Sequence[object] | None = None) -> None:
    """Raise ``error`` unless reflexive, transitive and, if asked, antisymmetric."""
    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise error(f"{what} must be reflexive")
        reach = 0
        for j in _bits(row):
            reach |= rows[j]
            if antisymmetric and j != i and rows[j] >> i & 1:
                a, b = (names[i], names[j]) if names is not None else (i, j)
                raise error(f"{what} must be antisymmetric: {a!r} and {b!r} "
                            "are comparable both ways")
        if reach != row:
            raise error(f"{what} must be transitive")


def _closure(n: int, pairs: Iterable[tuple[int, int]]) -> Rows:
    """Reflexive-transitive closure of index pairs on range(n) (Warshall)."""
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    for k in range(n):
        bit, row_k = 1 << k, rows[k]
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return tuple(rows)


def _block_values(rows: Sequence[int], masks: Sequence[int]) -> list[bool | None]:
    """Per mask: True if every row contains it, False if none meets it, else None."""
    differ = 0
    for row in rows:
        differ |= row ^ rows[0]
    return [None if differ & m or (rows[0] & m) not in (0, m) else rows[0] & m == m
            for m in masks]


def _topological_order(rows: Rows) -> tuple[int, ...]:
    """Kahn's sort of the strict relation, smallest ready index first."""
    succ = [list(_bits(row & ~(1 << i))) for i, row in enumerate(rows)]
    indegree = [0] * len(rows)
    for j in (j for js in succ for j in js):
        indegree[j] += 1
    ready = [i for i, d in enumerate(indegree) if not d]  # sorted, so a heap
    out: list[int] = []
    while ready:
        out.append(heapq.heappop(ready))
        for j in succ[out[-1]]:
            indegree[j] -= 1
            if not indegree[j]:
                heapq.heappush(ready, j)
    if len(out) != len(rows):
        raise InternalInvariantError("order relation has a cycle")
    return tuple(out)


def _longest_chain(rows: Rows) -> int:
    """Most elements in a strictly increasing chain (0 when empty)."""
    best = [0] * len(rows)
    for i in reversed(_topological_order(rows)):
        best[i] = 1 + max((best[j] for j in _bits(rows[i] & ~(1 << i))), default=0)
    return max(best, default=0)


def _covers(rows: Rows) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j), row-major: strict successors of i above no other one."""
    out = []
    for i, row in enumerate(rows):
        strict, above = row & ~(1 << i), 0
        for j in _bits(strict):
            above |= rows[j] & ~(1 << j)
        out.extend((i, j) for j in _bits(strict & ~above))
    return tuple(out)


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of the vertices into path components (mutual reachability).

    Components are ordered by their first-encountered vertex in declaration
    order, and each component lists its vertices in declaration order.
    """

    components: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for comp in self.components:
            if not comp:
                raise InternalInvariantError("empty component")
            for v in comp:
                if v in seen:
                    raise InternalInvariantError(f"vertex {v!r} in two components")
                seen.add(v)

    @cached_property
    def membership(self) -> dict[str, int]:
        return {v: i for i, comp in enumerate(self.components) for v in comp}

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ReachabilityPattern:
    """Reflexive-transitive reachability as a boolean matrix over a vertex order."""

    order: tuple[str, ...]
    bits: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        _check_preorder(self.rows, InternalInvariantError, "pattern")

    @cached_property
    def rows(self) -> Rows:
        return _rows(self.bits, len(self.order), InternalInvariantError, "pattern")

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.order)}

    def at(self, source: str, target: str) -> bool:
        try:
            return self.bits[self.index[source]][self.index[target]]
        except KeyError as exc:
            raise QuiverError(f"unknown vertex {exc.args[0]!r}") from None

    def reordered(self, new_order: Sequence[str]) -> "ReachabilityPattern":
        new_order = tuple(new_order)
        if sorted(new_order) != sorted(self.order):
            raise QuiverError("new order is not a permutation of the vertices")
        idx = self.index
        bits = tuple(
            tuple(self.bits[idx[v]][idx[w]] for w in new_order) for v in new_order
        )
        return ReachabilityPattern(new_order, bits)

    def bitstrings(self) -> tuple[str, ...]:
        return tuple("".join("1" if b else "0" for b in row) for row in self.bits)

    def true_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


@dataclass(frozen=True)
class CondensationOrder:
    """Component-level reachability: a partial order on the components."""

    relation: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        _check_preorder(self.rows, InternalInvariantError, "condensation",
                        antisymmetric=True)

    @cached_property
    def rows(self) -> Rows:
        return _rows(self.relation, self.m, InternalInvariantError, "condensation")

    @property
    def m(self) -> int:
        return len(self.relation)


def path_components(quiver: Quiver) -> ComponentPartition:
    """Strongly connected components, iterative Tarjan."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    raw: list[list[str]] = []
    counter = 0

    for root in quiver.vertices:
        if root in index_of:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        call = [(root, iter(quiver.arrows_from[root]))]
        while call:
            node, arrows = call[-1]
            advanced = False
            for arrow in arrows:
                w = arrow.target
                if w not in index_of:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    call.append((w, iter(quiver.arrows_from[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index_of[w])
            if advanced:
                continue
            call.pop()
            if call:
                parent = call[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                raw.append(comp)

    decl = quiver.vertex_index
    canonical = [tuple(sorted(comp, key=decl.__getitem__)) for comp in raw]
    canonical.sort(key=lambda comp: decl[comp[0]])
    return ComponentPartition(tuple(canonical))


def reachability(quiver: Quiver) -> ReachabilityPattern:
    """Pattern over the declaration order: v reaches w iff a path runs from v to w.

    Every vertex reaches itself by its length-zero path.
    """
    idx = quiver.vertex_index
    rows = _closure(
        quiver.n, ((idx[a.source], idx[a.target]) for a in quiver.arrows)
    )
    return ReachabilityPattern(quiver.vertices, _matrix(rows))


def condensation(
    partition: ComponentPartition, pattern: ReachabilityPattern
) -> CondensationOrder:
    """Component-level relation; every representative pair must agree."""
    index = pattern.index
    try:
        masks = [sum(1 << index[v] for v in comp) for comp in partition.components]
    except KeyError as exc:
        raise QuiverError(f"unknown vertex {exc.args[0]!r}") from None
    relation = []
    for i, comp in enumerate(partition.components):
        related = _block_values([pattern.rows[index[u]] for u in comp], masks)
        if None in related:
            raise InternalInvariantError(
                f"reachability between components {i} and {related.index(None)} "
                "depends on the representative"
            )
        relation.append(tuple(related))
    return CondensationOrder(tuple(relation))


def topological_component_order(cond: CondensationOrder) -> tuple[int, ...]:
    """Topological sort of the components, smallest-index tie-break (Kahn)."""
    return _topological_order(cond.rows)


def consistent_ordering(
    quiver: Quiver,
    partition: ComponentPartition,
    pattern: ReachabilityPattern | None = None,
) -> tuple[str, ...]:
    """Vertex order with components contiguous and topologically sorted.

    Reachability goes weakly forward; within a component the declaration
    order is kept, and incomparable components keep their original order.
    """
    if pattern is None:
        pattern = reachability(quiver)
    cond = condensation(partition, pattern)
    order: list[str] = []
    for ci in topological_component_order(cond):
        order.extend(partition.components[ci])
    return tuple(order)


def longest_chain(cond: CondensationOrder) -> int:
    """Largest number of elements in a strictly increasing chain (>= 1)."""
    return _longest_chain(cond.rows)
