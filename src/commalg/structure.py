"""Reachability structure of a quiver: closure, components, condensation.

The package has two order types, both stored as row bitsets (bit j of row i
means i <= j) and handled by the private core at the top of this module: the
preorder ``ReachabilityPattern`` on the vertices and the partial order
``Poset``.  Bool matrices are only constructor input, converted by ``_rows``,
and views (``bits``, ``Poset.leq``) built when first read.  A closure is read
over the successor lists and Tarjan's components its caller built once, sinks
first, each row its mask OR the rows its edges reach.  Every order is checked
over the edges that generate it (the arrows, a poset's pairs, or a matrix's
related pairs) by ``_closed_order``: each row holds its group, no edge leads
back, and each row is its mask OR its successors' rows, which on the remaining
DAG is reachability.  The path components are the classes of equal rows,
checked against the components the closure was read over; the condensation, the
skeleton's ``Poset`` on the first vertex of each, takes its masks in one loop
over the members and its edges in one pass.  Only the commuting algebra's sweep
builds the pattern in the consistent order, checking it block by block.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from .errors import InternalInvariantError, QuiverError, _Record, _of_rows
from .quiver import Quiver

__all__ = [
    "ComponentPartition",
    "ReachabilityPattern",
    "Poset",
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


def _bitstrings(rows: Rows) -> tuple[str, ...]:
    spec = f"0{len(rows)}b"  # each distinct row once: rows repeat within a block
    strings = {row: format(row, spec)[::-1] for row in set(rows)}
    return tuple(map(strings.__getitem__, rows))


def _matrix(rows: Rows) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(c == "1" for c in row) for row in _bitstrings(rows))


def _bits(row: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _successors(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        succ[i].append(j)
    return succ


def _components(n: int, succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components, each listed after every one it reaches:
    reverse topological order (Tarjan, without recursion)."""
    index, low, stack, out, count = [0] * n, [0] * n, [], [], 0
    for w in filter(lambda v: not index[v], range(n)):  # each root, w to enter
        work: list = []
        while w is not None or work:
            if w is not None:
                count += 1
                index[w] = low[w] = count
                work.append((w, iter(succ[w]), len(stack)))
                stack.append(w)
            v, todo, at = work[-1]
            for w in todo:
                if not index[w]:
                    break
                if index[w] < low[v]:  # n + 1 once w's component is out
                    low[v] = index[w]
            else:
                work.pop()
                w = None
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    out.append(stack[at:])
                    del stack[at:]
                    for u in out[-1]:
                        index[u] = n + 1
    return out


def _closure(succ: Sequence[Sequence[int]], comps: Iterable[Sequence[int]]) -> Rows:
    """Reflexive-transitive closure of the edges ``succ``: over their Tarjan
    components ``comps``, sinks first, each row is its mask OR the rows its edges reach."""
    rows = [0] * len(succ)
    for comp in comps:
        row = 0
        for v in comp:
            row |= 1 << v
            for w in succ[v]:
                row |= rows[w]  # 0 inside the component, whose rows are not yet set
        for v in comp:
            rows[v] = row
    return tuple(rows)


def _depends(i: int, j: int) -> InternalInvariantError:
    return InternalInvariantError(f"reachability between components {i} and {j} "
                                  "depends on the representative")


def _closed_order(rows: Sequence[int], masks: Sequence[int] | None,
                  succ: Sequence[Sequence[int]], error: type, what: str,
                  names: Sequence[object]) -> tuple[Rows, tuple[int, ...]]:
    """Check the rows of groups of vertices (``masks``, by default one vertex
    each) over the edges ``succ`` between groups; return the rows over the
    groups and Kahn's order.  Each row must hold its group whole, no edge may
    lead back into its source's row, and each row must be its mask OR its
    successors' rows: on a DAG, that fixed point is reachability.
    """
    masks = masks or [1 << c for c in range(len(rows))]
    for c, (row, mask) in enumerate(zip(rows, masks)):
        if row & mask != mask:
            raise _depends(c, c) if row & mask else error(f"{what} must be reflexive")
        for d in succ[c]:
            if rows[d] & mask and rows[d] & mask != mask:
                raise _depends(d, c)
            if rows[d] & mask:
                raise error(f"{what} must be antisymmetric: {names[c]!r} and "
                            f"{names[d]!r} are comparable both ways")
    try:
        order = _topological_order(succ)
    except InternalInvariantError:  # a cycle that no row closes
        raise error(f"{what} must be transitive") from None
    up, reach = [0] * len(rows), [0] * len(rows)
    for c in reversed(order):
        up[c], reach[c] = 1 << c, masks[c]
        for d in succ[c]:
            up[c] |= up[d]
            reach[c] |= reach[d]
        if reach[c] != rows[c]:
            raise error(f"{what} must be transitive" if reach[c] & ~rows[c]
                        else f"{what} row {c} holds more than its edges reach")
    return tuple(up), order


def _topological_order(succ: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Kahn's sort of the edges ``succ``, smallest ready index first."""
    indegree = [0] * len(succ)
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
    if len(out) != len(succ):
        raise InternalInvariantError("order relation has a cycle")
    return tuple(out)


def _longest_chain(succ: Sequence[Sequence[int]], extension: Sequence[int]) -> int:
    """Most elements on a path of the edges ``succ`` (0 when empty), sweeping ``extension``."""
    best = [0] * len(succ)
    for i in reversed(extension):
        best[i] = 1 + max((best[j] for j in succ[i]), default=0)
    return max(best, default=0)


def _covers(rows: Rows, succ: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j), row-major: successors of i above no other one.  The edges
    ``succ`` close to ``rows``, so every cover is one of them (Aho, Garey, Ullman)."""
    out = []
    for i, js in enumerate(succ):
        edges = above = 0
        for j in js:
            edges |= 1 << j
            above |= rows[j] ^ 1 << j
        out.extend((i, j) for j in _bits(edges & ~above))
    return tuple(out)


class ComponentPartition(_Record):
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


def _strict_successors(self) -> list[list[int]]:
    """Successor lists whose closure is the order: its edges, or its strict rows."""
    return [list(_bits(row & ~(1 << i))) for i, row in enumerate(self.rows)]


class ReachabilityPattern(_Record):
    """Reflexive-transitive reachability over a vertex order, as row bitsets."""

    order: tuple[str, ...]
    rows: Rows

    def __init__(self, order: Sequence[str], bits: Sequence[Sequence[bool]]):
        """Pattern of a bool matrix, checked to be a preorder by its condensation."""
        order = tuple(order)
        rows = _rows(bits, len(order), InternalInvariantError, "pattern")
        self.__dict__.update(order=order, rows=rows)
        self.condensation  # its checks imply the preorder

    @cached_property
    def bits(self) -> tuple[tuple[bool, ...], ...]:
        return _matrix(self.rows)

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.order)}

    @cached_property
    def partition(self) -> ComponentPartition:
        """Classes of equal rows, by first vertex: the mutual-reachability classes."""
        classes: dict[int, list[str]] = {}
        for v, row in zip(self.order, self.rows):
            classes.setdefault(row, []).append(v)
        return ComponentPartition(tuple(map(tuple, classes.values())))

    @cached_property
    def condensation(self) -> "Poset":
        """The order on this pattern's own path components."""
        return condensation(self.partition, self)

    _succ = cached_property(_strict_successors)

    def at(self, source: str, target: str) -> bool:
        try:
            return bool(self.rows[self.index[source]] >> self.index[target] & 1)
        except KeyError as exc:
            raise QuiverError(f"unknown vertex {exc.args[0]!r}") from None

    def bitstrings(self) -> tuple[str, ...]:
        return _bitstrings(self.rows)

    def true_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


class Poset(_Record):
    """Finite poset: elements and their order as row bitsets; ``leq`` is a cached view."""

    elements: tuple[str, ...]
    rows: Rows

    def __init__(self, elements: Sequence[str], leq: Sequence[Sequence[bool]]):
        """Poset of a leq matrix, checked to be a partial order."""
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise QuiverError("poset elements must be pairwise distinct")
        rows = _rows(leq, len(elements), QuiverError, "leq")
        self.__dict__.update(elements=elements, rows=rows)
        _, self.__dict__["_extension"] = _closed_order(rows, None, self._succ, QuiverError,
                                                       "leq", elements)

    @classmethod
    def from_pairs(
        cls, elements: Sequence[str], pairs: Iterable[tuple[str, str]]
    ) -> "Poset":
        """Reflexive-transitive closure of the given strict pairs."""
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise QuiverError("poset elements must be pairwise distinct")
        edges = []
        for x, y in pairs:
            if x not in index or y not in index:
                raise QuiverError(f"pair ({x!r}, {y!r}) mentions an unknown element")
            edges.append((index[x], index[y]))
        succ = _successors(len(elements), [(i, j) for i, j in edges if i != j])
        rows, order = _closed_order(_closure(succ, _components(len(elements), succ)), None,
                                    succ, QuiverError, "leq", elements)
        return _of_rows(cls, elements=elements, rows=rows, _succ=succ, _extension=order)

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        return _matrix(self.rows)

    _succ = cached_property(_strict_successors)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j) of the Hasse diagram, row-major."""
        return _covers(self.rows, self._succ)

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """The elements each element covers, ascending; checks that each row is
        its own bit OR the rows of its upper covers, so every strict relation
        i < j ends in a cover (y, j) with i <= y."""
        lower: list[list[int]] = [[] for _ in self.rows]
        spans = [1 << i for i in range(len(self.rows))]
        for i, j in self.covers:
            lower[j].append(i)
            spans[i] |= self.rows[j]
        if tuple(spans) != self.rows:
            raise InternalInvariantError("related pair with no cover route")
        return tuple(map(tuple, lower))

    @cached_property
    def up_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per element, the indices at or above it, ascending."""
        return tuple(tuple(_bits(row)) for row in self.rows)

    @cached_property
    def index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def position(self, x: str) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise QuiverError(f"unknown element {x!r}") from None

    def le(self, x: str, y: str) -> bool:
        return bool(self.rows[self.position(x)] >> self.position(y) & 1)

    def __len__(self) -> int:
        return len(self.elements)

    def longest_chain(self) -> int:
        """Largest number of elements in a strictly increasing chain."""
        return self._chain

    @cached_property
    def _chain(self) -> int:
        return _longest_chain(self._succ, self.linear_extension())

    def linear_extension(self) -> tuple[int, ...]:
        """Indices in a topological order compatible with leq (deterministic)."""
        return self._extension

    @cached_property
    def _extension(self) -> tuple[int, ...]:
        return _topological_order(self._succ)

    @cached_property
    def mobius(self) -> tuple[tuple[int, ...], ...]:
        """The Mobius function as a matrix: mu(i, i) = 1, mu(i, j) = -(sum of
        mu(i, z) over i <= z < j) for i < j, and 0 when i is not below j.
        Each of the m rows scans a linear extension and sums the whole down-set
        of each element above i: m^2 steps and sum_j |below(j)|^2 additions."""
        below: list[list[int]] = [[] for _ in self.rows]
        for i, up in enumerate(self.up_sets):
            for j in up:
                below[j].append(i)
        out = []
        for i, row in enumerate(self.rows):
            mu = [0] * len(self.rows)  # zero off [i, j) when j is reached
            mu[i] = 1
            for j in self.linear_extension():
                if j != i and row >> j & 1:
                    mu[j] = -sum(map(mu.__getitem__, below[j]))  # mu[j] is still 0
            out.append(tuple(mu))
        return tuple(out)

    def pairs(self) -> list[tuple[str, str]]:
        """All related pairs (x, y) with x <= y, row-major."""
        els = self.elements
        return [(els[i], els[j]) for i, row in enumerate(self.rows) for j in _bits(row)]


def path_components(quiver: Quiver) -> ComponentPartition:
    """Path components: vertices with equal rows in the reachability pattern."""
    return reachability(quiver).partition


def reachability(quiver: Quiver) -> ReachabilityPattern:
    """Pattern over the declaration order: v reaches w iff a path runs from v to w.

    Every vertex reaches itself by its length-zero path.  The closure, read
    over Tarjan's components, is checked to hold every arrow, its condensation
    to be the closure of the arrows between its classes of equal rows, and
    those classes to be the components it was read over.
    """
    succ = _successors(quiver.n, quiver._ends)
    sccs = _components(quiver.n, succ)
    rows = _closure(succ, sccs)
    for arrow, (i, j) in zip(quiver.arrows, quiver._ends):
        if not rows[i] >> j & 1:
            raise InternalInvariantError(f"pattern misses arrow {arrow.name!r}")
    pattern = _of_rows(ReachabilityPattern, order=quiver.vertices, rows=rows, _succ=succ)
    pattern.condensation  # its checks imply the vertex-level preorder
    if len(sccs) != len(pattern.partition) or any(rows[v] != rows[c[0]] for c in sccs for v in c):
        raise InternalInvariantError("strongly connected components are not the classes "
                                     "of equal rows")
    return pattern


def condensation(partition: ComponentPartition, pattern: ReachabilityPattern) -> Poset:
    """Component-level relation on each component's first vertex, checked to
    be a partial order.  This is where a closure's block shape is checked:
    the member rows of a component must be equal, and ``_closed_order``
    checks them over the pattern's edges between components."""
    index, vertex_rows = pattern.index, pattern.rows
    owner, masks, members = [None] * len(vertex_rows), [], []
    try:
        for c, comp in enumerate(partition.components):
            mask, js = 0, [index[v] for v in comp]
            for j in js:
                owner[j], mask = c, mask | 1 << j
            masks.append(mask)
            members.append(js)
    except KeyError as exc:
        raise QuiverError(f"unknown vertex {exc.args[0]!r}") from None
    covered = sum(masks)  # bits of vertices outside the partition are ignored
    rows = [vertex_rows[js[0]] & covered for js in members]
    for c, js in enumerate(members):
        for j in js[1:]:
            if vertex_rows[j] & covered != rows[c]:
                raise _depends(c, owner[next(_bits(vertex_rows[j] & covered ^ rows[c]))])
    succ: list[list[int]] = [[] for _ in members]
    for c, js in zip(owner, pattern._succ):
        if c is not None:  # edges to another component; a vertex outside counts as inside
            for j in js:
                if (d := owner[j]) != c and d is not None:
                    succ[c].append(d)
    up, order = _closed_order(rows, masks, succ, InternalInvariantError, "condensation",
                              range(len(members)))
    return _of_rows(Poset, elements=tuple(comp[0] for comp in partition.components),
                    rows=up, _succ=succ, _extension=order)


def topological_component_order(order: Poset) -> tuple[int, ...]:
    """Topological sort of the components, smallest-index tie-break (Kahn)."""
    return order.linear_extension()


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
    component_order = topological_component_order(condensation(partition, pattern))
    return tuple(v for ci in component_order for v in partition.components[ci])


def longest_chain(order: Poset) -> int:
    """Largest number of elements in a strictly increasing chain (>= 1)."""
    return order.longest_chain()
