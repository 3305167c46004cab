"""Poset skeletons of quivers and their incidence algebras.

Collapsing each path component of a quiver to a single point leaves a finite
poset (component-level reachability).  The skeleton keeps one representative
vertex per component; its incidence algebra is a basic model of the quiver's
commuting algebra, and the two are compared unit by unit here.
"""

from __future__ import annotations

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
    _rows,
    _topological_order,
    condensation,
    path_components,
    reachability,
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


@dataclass(frozen=True)
class Poset:
    """Finite poset: named elements and a leq matrix over their order."""

    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise QuiverError("poset elements must be pairwise distinct")
        _check_preorder(self.rows, QuiverError, "leq", antisymmetric=True,
                        names=self.elements)

    @classmethod
    def from_pairs(
        cls, elements: Sequence[str], pairs: Iterable[tuple[str, str]]
    ) -> "Poset":
        """Reflexive-transitive closure of the given strict pairs."""
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        edges = []
        for x, y in pairs:
            if x not in index or y not in index:
                raise QuiverError(f"pair ({x!r}, {y!r}) mentions an unknown element")
            edges.append((index[x], index[y]))
        return cls(elements, _matrix(_closure(len(elements), edges)))

    @cached_property
    def rows(self) -> Rows:
        return _rows(self.leq, len(self.elements), QuiverError, "leq")

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j) of the Hasse diagram, row-major."""
        return _covers(self.rows)

    @cached_property
    def index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.elements)}

    def le(self, x: str, y: str) -> bool:
        try:
            return self.leq[self.index[x]][self.index[y]]
        except KeyError as exc:
            raise QuiverError(f"unknown element {exc.args[0]!r}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def longest_chain(self) -> int:
        """Largest number of elements in a strictly increasing chain."""
        return _longest_chain(self.rows)

    def linear_extension(self) -> tuple[int, ...]:
        """Indices in a topological order compatible with leq (deterministic)."""
        return _topological_order(self.rows)

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
    representatives were chosen.
    """

    quiver: Quiver
    poset: Poset
    representatives: tuple[str, ...]
    partition: ComponentPartition
    pattern: ReachabilityPattern

    def __len__(self) -> int:
        return len(self.poset)


def skeleton(quiver: Quiver, representatives: Sequence[str] | None = None) -> Skeleton:
    """Collapse each path component to a representative; order by reachability."""
    partition = path_components(quiver)
    pattern = reachability(quiver)
    cond = condensation(partition, pattern)
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
    poset = Poset(canonical, cond.relation)
    return Skeleton(quiver, poset, representatives, partition, pattern)


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
    algebra = commuting_algebra(skel.quiver, field)
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
    return skeleton(hq).poset == poset
