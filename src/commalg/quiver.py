"""Finite quivers (directed multigraphs) and their paths."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Container, Iterable, Mapping, Sequence
from functools import cached_property
from numbers import Rational

from .errors import QuiverError, TruncationOverflowError, _Record
from .fields import QQ

__all__ = [
    "Arrow",
    "Path",
    "Quiver",
    "compose",
    "is_parallel",
    "WalksFrom",
    "WalkCounts",
    "count_paths",
    "enumerate_paths",
    "to_dot",
]


class Arrow(namedtuple("Arrow", "name source target")):
    """An arrow ``name: source -> target``: an immutable triple, equal only to arrows."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return isinstance(other, Arrow) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


class Path(_Record):
    """A directed walk through a quiver.

    An empty arrow tuple is the length-zero path sitting at ``start``;
    every vertex is a path in its own right.  ``end`` is stored so that
    composition and parallelism need no quiver lookup.
    """

    start: str
    arrows: tuple[str, ...]
    end: str

    def __init__(self, start, arrows, end):
        self.__dict__.update(start=start, arrows=arrows, end=end)

    def __eq__(self, other):
        return ((self.start, self.arrows, self.end) == (other.start, other.arrows, other.end)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.start, self.arrows, self.end))

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __repr__(self) -> str:
        if not self.arrows:
            return f"Path({self.start})"
        return f"Path({self.start}:{'.'.join(self.arrows)}:{self.end})"


def _exact_weights(weights: Mapping, arrows: Container[str] | None = None) -> dict:
    """Each weight as an exact nonzero rational; with ``arrows``, refuse any other name."""
    out = {}
    for name, value in weights.items():
        if arrows is not None and name not in arrows:
            raise QuiverError(f"weight given for unknown arrow {name!r}")
        out[name] = value = QQ.element(value)
        if value == 0:
            raise QuiverError(f"arrow {name!r} has zero weight")
    return out


class Quiver:
    """A finite directed multigraph with named vertices and arrows.

    Loops and parallel arrows are allowed.  Arrows may carry nonzero
    rational weights, made exact by ``QQ.element`` (which refuses a float);
    an absent weight means 1.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        arrows: Iterable[Arrow | tuple[str, str, str]] = (),
        weights: Mapping[str, Rational | str] | None = None,
        name: str = "Q",
    ):
        self.name = str(name)
        self.vertices = tuple(vertices)
        if not self.vertices:
            raise QuiverError("a quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("vertex identifiers must be pairwise distinct")
        self.arrows = tuple([a if isinstance(a, Arrow) else Arrow(*a) for a in arrows])
        index = self.vertex_index
        try:  # each arrow's endpoint positions, read by the closure and the walk counts
            self._ends = [(index[a.source], index[a.target]) for a in self.arrows]
        except KeyError:
            a = next(a for a in self.arrows if a.source not in index or a.target not in index)
            end, v = ("source", a.source) if a.source not in index else ("target", a.target)
            raise QuiverError(f"arrow {a.name!r}: undeclared {end} vertex {v!r}") from None
        seen = set()
        for a in self.arrows:
            if a.name in seen:
                raise QuiverError(f"duplicate arrow identifier {a.name!r}")
            seen.add(a.name)
        self.weights = {k: v for k, v in _exact_weights(weights or {}, seen).items() if v != 1}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _arrows_by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def arrows_from(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrows_by_name[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {name!r}") from None

    def weight(self, arrow_name: str) -> Rational:
        self.arrow(arrow_name)
        return self.weights.get(arrow_name, QQ.one)

    def check_vertex(self, v: str) -> str:
        if v not in self.vertex_index:
            raise QuiverError(f"unknown vertex {v!r}")
        return v

    def vertex_path(self, v: str) -> Path:
        return Path(self.check_vertex(v), (), v)

    def path(self, start: str, arrow_names: Iterable[str] = ()) -> Path:
        """Build a path from ``start`` along the named arrows, validating chaining."""
        at = self.check_vertex(start)
        names = tuple(arrow_names)
        for nm in names:
            a = self.arrow(nm)
            if a.source != at:
                raise QuiverError(
                    f"arrow {nm!r} starts at {a.source!r}, expected {at!r}"
                )
            at = a.target
        return Path(start, names, at)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return (
            self.name == other.name
            and self.vertices == other.vertices
            and self.arrows == other.arrows
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return f"Quiver({self.name!r}, {len(self.vertices)} vertices, {len(self.arrows)} arrows)"


def compose(first: Path, second: Path) -> Path:
    """Concatenate two paths; the first must end where the second starts."""
    if first.end != second.start:
        raise QuiverError(
            f"cannot compose: first path ends at {first.end!r}, "
            f"second starts at {second.start!r}"
        )
    return Path(first.start, first.arrows + second.arrows, second.end)


def is_parallel(p: Path, q: Path) -> bool:
    """Whether two paths share both endpoints."""
    return p.start == q.start and p.end == q.end


class WalksFrom:
    """The walks from ``source`` of length at most ``max_length``, by end vertex.

    One frontier pass counts the walks to every end at once; with ``lists``
    it also keeps each end's walks as ``(arrows, length)`` pairs, by length,
    then lexicographically by arrow declaration order, building no ``Path``.
    With ``cap`` set, an end overflows at the first length where the walks to
    it so far exceed the cap, and every end at the first length where the
    walks of that length do; a length is listed only once within the cap.
    ``WalkCounts`` counts from every source at once by the same rules.
    """

    def __init__(self, quiver: Quiver, source: str, max_length: int,
                 cap: int | None = None, lists: bool = False):
        quiver.check_vertex(source)
        if max_length < 0:
            raise QuiverError("max_length must be nonnegative")
        if cap is not None and cap < 0:
            raise QuiverError("path cap must be nonnegative")
        self.source, self.cap, self.spill, self.over = source, cap, None, {}
        counts = self.counts = {source: 1}
        self.lists = {source: [((), 0)]} if lists else None
        frontier, level = {source: 1}, [((), source)]
        for length in range(1, max_length + 1):
            previous, frontier = frontier, {}
            for at, walks in previous.items():
                for _, _, end in quiver.arrows_from[at]:
                    frontier[end] = frontier.get(end, 0) + walks
            if not frontier:
                break
            # only an end reached at this length can newly exceed the cap: the
            # source's length-0 walk exceeds a cap of 0 where the frontier does
            for end, walks in frontier.items():
                counts[end] = total = counts.get(end, 0) + walks
                if cap is not None and total > cap:
                    self.over.setdefault(end, length)
            if cap is not None and sum(frontier.values()) > cap:
                self.spill = length  # every end overflows here
                break
            if lists:
                level = [(arrows + (name,), end) for arrows, at in level
                         for name, _, end in quiver.arrows_from[at]]
                for arrows, end in level:
                    self.lists.setdefault(end, []).append((arrows, length))

    def count(self, target: str) -> int:
        """The walks to ``target``; raises TruncationOverflowError where it overflows."""
        if (length := self.over.get(target, self.spill)) is not None:
            raise _overflow(self.source, target, self.cap, length)
        return self.counts.get(target, 0)

    def walks(self, target: str) -> list[tuple[tuple[str, ...], int]]:
        self.count(target)  # raises where the count overflows
        return self.lists.get(target, [])


def _overflow(source: str, target: str, cap: int, length: int) -> TruncationOverflowError:
    return TruncationOverflowError(
        f"path count from {source!r} to {target!r} exceeds cap {cap} at length {length}")


class WalkCounts:
    """The walks of length at most ``max_length`` between every pair, by one packed pass.

    Vertex t holds one int with a W-bit slot per source (Kronecker substitution),
    so each (length, arrow) adds the arrow's source int into its target's for
    every source at once.  W holds the largest count or frontier sum of one
    unpacked pass from every vertex at once, and a guard bit: adding
    2^(W-1) - 1 - cap to every slot sets the guard bits of those above the cap,
    so ``WalksFrom``'s cap rules are tested on every slot at once, and not at
    all where that bound is within the cap.
    """

    def __init__(self, quiver: Quiver, max_length: int, cap: int | None = None):
        if max_length < 0:
            raise QuiverError("max_length must be nonnegative")
        if cap is not None and cap < 0:
            raise QuiverError("path cap must be nonnegative")
        n, self.index, self.cap, self.over, self.spill = quiver.n, quiver.vertex_index, cap, {}, {}

        def frontiers(frontier):  # the walks of each length, while any is left
            for length in range(1, max_length + 1):
                frontier, previous = [0] * n, frontier
                for source, target in quiver._ends:
                    frontier[target] += previous[source]
                if not any(frontier):
                    return
                yield length, frontier

        totals, bound = [1] * n, 1
        for _, frontier in frontiers(totals):
            totals = [x + walks for x, walks in zip(totals, frontier)]
            bound = max(bound, sum(frontier), *totals)
        size = self.size = bound.bit_length() // 8 + 1  # bytes per slot, guard bit included
        ones = int.from_bytes(b"\1".ljust(size, b"\0") * n, "little")
        guard, low = ones << 8 * size - 1, ones * ((1 << 8 * size - 1) - 1)
        test = cap is not None and cap < bound  # no slot can pass a cap above the bound
        # an int count exceeds a cap c exactly where it exceeds int(c)
        bias, spilled = low - ones * int(cap) if test else low, 0

        def slots(mask):  # the sources whose guard bit is set
            tops = mask.to_bytes(n * size, "little")[size - 1::size]
            return [s for s, top in enumerate(tops) if top]

        totals = [1 << 8 * size * s for s in range(n)]  # the walk of length 0, in its own slot
        for length, frontier in frontiers(totals[:]):
            for t, walks in enumerate(frontier):
                if walks:
                    totals[t] = total = totals[t] + walks
                    # only an end reached at this length can newly overflow
                    if test and (hit := (total + bias) & (walks + low) & guard & ~spilled):
                        for s in slots(hit):
                            self.over.setdefault((s, t), length)
            if test:
                total = sum(frontier)
                for s in slots((hit := (total + bias) & guard) & ~spilled):
                    self.spill[s] = length  # every end of s overflows here
                spilled |= hit
                if not (total + low) & guard & ~spilled:
                    break  # each source with walks left has overflowed
        self.columns = [x.to_bytes(n * size, "little") for x in totals]

    def count(self, source: str, target: str) -> int:
        """The walks from ``source`` to ``target``; raises TruncationOverflowError on overflow."""
        s, t = self.index[source], self.index[target]
        if (length := self.over.get((s, t), self.spill.get(s))) is not None:
            raise _overflow(source, target, self.cap, length)
        return int.from_bytes(self.columns[t][s * self.size:(s + 1) * self.size], "little")


def count_paths(
    quiver: Quiver, source: str, target: str, max_length: int, cap: int | None = None
) -> int:
    """Number of paths from ``source`` to ``target`` of length at most ``max_length``.

    One ``WalksFrom`` pass from ``source``; with ``cap`` set, raises
    TruncationOverflowError where that pass's cap rules overflow ``target``.
    """
    quiver.check_vertex(source)
    quiver.check_vertex(target)
    return WalksFrom(quiver, source, max_length, cap).count(target)


def enumerate_paths(
    quiver: Quiver, source: str, target: str, max_length: int, cap: int | None = None
) -> list[Path]:
    """All paths from ``source`` to ``target`` of length at most ``max_length``.

    Ordered by length, then lexicographically by arrow declaration order.  The
    length-0 path appears exactly when source == target.  The cap is that of
    ``WalksFrom``, checked at each length before its walks are listed.
    """
    quiver.check_vertex(source)
    quiver.check_vertex(target)
    walks = WalksFrom(quiver, source, max_length, cap, lists=True).walks(target)
    return [Path(source, arrows, target) for arrows, _ in walks]


def to_dot(quiver: Quiver) -> str:
    """Graphviz digraph text: one node per vertex, one labeled edge per arrow."""
    lines = [f'digraph "{quiver.name}" {{']
    for v in quiver.vertices:
        lines.append(f'  "{v}";')
    for a in quiver.arrows:
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
