"""Poset skeletons of quivers and their incidence algebras.

Collapsing each path component of a quiver to a single point leaves a finite
poset (component-level reachability).  The skeleton keeps one representative
vertex per component; its incidence algebra is a basic model of the quiver's
commuting algebra, and the two are compared unit by unit here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .algebra import CommutingAlgebra, commuting_algebra
from .errors import InternalInvariantError, QuiverError
from .fields import QQ
from .quiver import Arrow, Quiver
from .structure import (
    ComponentPartition,
    ReachabilityPattern,
    Rows,
    _bits,
    _check_preorder,
    _closure,
    _covers,
    _longest_chain,
    _matrix,
    _of_rows,
    _rows,
    _topological_order,
)

__all__ = [
    "Poset",
    "HasseDiagram",
    "Skeleton",
    "IncidenceAlgebra",
    "SkeletonIsomorphism",
    "skeleton",
    "hasse",
    "hasse_quiver",
    "incidence_algebra",
    "skeleton_iso_incidence",
    "end_hom_dims",
    "idempotence_check",
]


@dataclass(frozen=True, init=False)
class Poset:
    """Finite poset: elements and their order as row bitsets; ``leq`` is a cached view."""

    elements: tuple[str, ...]
    rows: Rows

    def __init__(self, elements: Sequence[str], leq: Sequence[Sequence[bool]]):
        """Poset of a leq matrix, checked to be a partial order."""
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise QuiverError("poset elements must be pairwise distinct")
        rows = _rows(leq, len(elements), QuiverError, "leq", antisymmetric=True,
                     names=elements)
        self.__dict__.update(elements=elements, rows=rows)

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
        rows = _closure(len(elements), edges)
        _check_preorder(rows, QuiverError, "leq", antisymmetric=True, names=elements)
        return _of_rows(cls, elements=elements, rows=rows)

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        return _matrix(self.rows)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j) of the Hasse diagram, row-major."""
        return _covers(self.rows)

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        """The elements each element covers, ascending; checks that every
        strict relation i < j ends in a cover (y, j) with i <= y."""
        lower: list[list[int]] = [[] for _ in self.rows]
        for i, j in self.covers:
            lower[j].append(i)
        ends = [sum(1 << y for y in ys) for ys in lower]
        for i, row in enumerate(self.rows):
            if any(not row & ends[j] for j in _bits(row & ~(1 << i))):
                raise InternalInvariantError("related pair with no cover route")
        return tuple(map(tuple, lower))

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
        return _longest_chain(self.rows)

    def linear_extension(self) -> tuple[int, ...]:
        """Indices in a topological order compatible with leq (deterministic)."""
        return self._extension

    @cached_property
    def _extension(self) -> tuple[int, ...]:
        return _topological_order(self.rows)

    @cached_property
    def mobius(self) -> tuple[tuple[int, ...], ...]:
        """The Mobius function as a matrix: mu(i, i) = 1, mu(i, j) = -(sum of
        mu(i, z) over i <= z < j) for i < j, and 0 when i is not below j.
        One pass over the related pairs in a linear extension."""
        strictly_below: list[list[int]] = [[] for _ in self.rows]
        for i, row in enumerate(self.rows):
            for j in _bits(row & ~(1 << i)):
                strictly_below[j].append(i)
        out = []
        for i, row in enumerate(self.rows):
            mu = [0] * len(self.rows)  # zero off [i, j) when j is reached
            mu[i] = 1
            for j in self.linear_extension():
                if j != i and row >> j & 1:
                    mu[j] = -sum(map(mu.__getitem__, strictly_below[j]))
            out.append(tuple(mu))
        return tuple(out)

    def pairs(self) -> list[tuple[str, str]]:
        """All related pairs (x, y) with x <= y, row-major."""
        els = self.elements
        return [(els[i], els[j]) for i, row in enumerate(self.rows) for j in _bits(row)]


@dataclass(frozen=True)
class HasseDiagram:
    """Cover relation of a poset (its transitive reduction)."""

    poset: Poset
    covers: tuple[tuple[int, int], ...]

    def cover_pairs(self) -> list[tuple[str, str]]:
        els = self.poset.elements
        return [(els[i], els[j]) for i, j in self.covers]


def hasse(poset: Poset) -> HasseDiagram:
    return HasseDiagram(poset, poset.covers)


def hasse_quiver(poset: Poset, name: str = "H") -> Quiver:
    """Quiver with the poset's elements as vertices and covers as arrows."""
    diagram = hasse(poset)
    arrows = [
        Arrow(f"c{k}", poset.elements[i], poset.elements[j])
        for k, (i, j) in enumerate(diagram.covers)
    ]
    return Quiver(poset.elements, arrows, name=name)


@dataclass(frozen=True)
class Skeleton:
    """One representative vertex per path component, ordered as a poset.

    Poset elements are named canonically by the smallest-index vertex of
    each component, so the poset itself never depends on which
    representatives were chosen.  The poset is the condensation order of the
    commuting algebra the skeleton carries, and shares its checked rows.
    """

    quiver: Quiver
    poset: Poset
    representatives: tuple[str, ...]
    algebra: CommutingAlgebra = dataclasses.field(compare=False, repr=False)

    @property
    def partition(self) -> ComponentPartition:
        return self.algebra.partition

    @property
    def pattern(self) -> ReachabilityPattern:
        return self.algebra.pattern

    def __len__(self) -> int:
        return len(self.poset)


def skeleton(quiver: Quiver, representatives: Sequence[str] | None = None) -> Skeleton:
    """Collapse each path component to a representative; order by reachability."""
    return _skeleton(commuting_algebra(quiver), representatives)


def _skeleton(
    algebra: CommutingAlgebra, representatives: Sequence[str] | None = None
) -> Skeleton:
    """The skeleton of an already built commuting algebra's quiver."""
    partition = algebra.partition
    canonical = tuple(comp[0] for comp in partition.components)
    if representatives is None:
        representatives = canonical
    else:
        representatives = tuple(representatives)
        if len(representatives) != len(partition):
            raise QuiverError(
                f"expected {len(partition)} representatives, got {len(representatives)}"
            )
        for ci, rep in enumerate(representatives):
            if rep not in partition.components[ci]:
                raise QuiverError(
                    f"representative {rep!r} is not in component {ci}"
                )
    poset = _of_rows(Poset, elements=canonical, rows=algebra.condensation.rows)
    return Skeleton(algebra.quiver, poset, representatives, algebra)


@dataclass(frozen=True)
class IncidenceAlgebra:
    """Span of the related pairs of a poset, with interval composition.

    Basis pairs (x, y) with x <= y, diagonal included, in row-major order.
    The product of (x, y) and (w, z) is (x, z) when y == w and zero
    otherwise.
    """

    poset: Poset
    basis: tuple[tuple[int, int], ...]
    field: object = QQ

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def _basis_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.basis)

    def basis_index(self, pair: tuple[int, int]) -> int:
        if pair not in self._basis_set:
            raise QuiverError(f"{pair} is not a basis pair")
        return self.basis.index(pair)

    def multiply_basis(
        self, a: tuple[int, int], b: tuple[int, int]
    ) -> tuple[int, int] | None:
        if a not in self._basis_set or b not in self._basis_set:
            raise QuiverError(f"{a} or {b} is not a basis pair")
        if a[1] != b[0]:
            return None
        out = (a[0], b[1])
        if out not in self._basis_set:
            raise InternalInvariantError(f"product pair {out} is not in the basis")
        return out


def incidence_algebra(poset: Poset, field=QQ) -> IncidenceAlgebra:
    basis = tuple((i, j) for i, row in enumerate(poset.rows) for j in _bits(row))
    return IncidenceAlgebra(poset, basis, field)


@dataclass(frozen=True)
class SkeletonIsomorphism:
    """Unit-by-unit identification of an incidence algebra with a commuting algebra.

    ``assignment`` maps each basis pair (x_i, x_j) of the incidence algebra to
    the matrix unit e(w_i, w_j) at the representatives.  Construction verifies
    that every product of basis pairs matches the product of the images.
    """

    skeleton: Skeleton
    algebra: CommutingAlgebra
    incidence: IncidenceAlgebra
    assignment: tuple[tuple[tuple[int, int], tuple[str, str]], ...]
    products_checked: int


def skeleton_iso_incidence(skel: Skeleton, field=QQ) -> SkeletonIsomorphism:
    """Map basis pairs to representative matrix units and verify all products."""
    algebra = skel.algebra.over(field)
    inc = incidence_algebra(skel.poset, field)
    units = {}
    assignment = []
    for (i, j) in inc.basis:
        pair = (skel.representatives[i], skel.representatives[j])
        units[(i, j)] = algebra.basis_element(*pair)
        assignment.append(((i, j), pair))
    checked = 0
    for a, b in product(inc.basis, repeat=2):
        expected = inc.multiply_basis(a, b)
        got = algebra.multiply(units[a], units[b])
        if expected is None:
            ok = got.is_zero()
        else:
            ok = got == units[expected]
        if not ok:
            raise InternalInvariantError(
                f"incidence product {a} * {b} does not match the matrix units"
            )
        checked += 1
    return SkeletonIsomorphism(skel, algebra, inc, tuple(assignment), checked)


def end_hom_dims(skel: Skeleton, i: int, j: int) -> int:
    """dim Hom between the projectives at representatives i and j.

    The diagonal entries are one-dimensional endomorphism rings; off the
    diagonal the dimension is 1 exactly when a path runs from w_j to w_i
    (note the reversal), and never in both directions at once.
    """
    m = len(skel.poset)
    if not (0 <= i < m and 0 <= j < m):
        raise QuiverError(f"indices ({i}, {j}) out of range for {m} elements")
    if i == j:
        return 1
    return int(skel.pattern.at(skel.representatives[j], skel.representatives[i]))


def idempotence_check(poset: Poset) -> bool:
    """Hasse quiver of P, then commuting algebra and skeleton, returns P's data.

    The commuting algebra's support pattern must equal leq (as a relation on
    the elements), and the skeleton of the Hasse quiver must be P itself.
    """
    hq = hasse_quiver(poset)
    algebra = commuting_algebra(hq)
    if algebra.pattern.reordered(poset.elements).rows != poset.rows:
        return False
    return _skeleton(algebra).poset == poset
