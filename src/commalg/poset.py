"""Poset skeletons of quivers and their incidence algebras.

Collapsing each path component of a quiver to a single point leaves a finite
poset (component-level reachability): the condensation, a ``Poset`` of
``structure``.  The skeleton keeps one representative vertex per component;
its incidence algebra is a basic model of the quiver's commuting algebra (the
paper's Morita theorem), checked here with one product per incidence unit
against the poset's rows plus one per vertex for fullness.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import CommutingAlgebra, commuting_algebra
from .errors import InternalInvariantError, QuiverError, _Record
from .fields import QQ
from .quiver import Arrow, Quiver
from .structure import ComponentPartition, Poset, ReachabilityPattern, _bits

__all__ = [
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


class HasseDiagram(_Record):
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


class Skeleton(_Record, hidden=("algebra",)):
    """One representative vertex per path component, ordered as a poset.

    The poset is the condensation of the commuting algebra the skeleton
    carries, the same object: its elements are the first vertex of each
    component, so it never depends on which representatives were chosen.
    """

    quiver: Quiver
    poset: Poset
    representatives: tuple[str, ...]
    algebra: CommutingAlgebra  # hidden: out of ==, hash and repr

    @property
    def partition(self) -> ComponentPartition:
        return self.algebra.partition

    @property
    def pattern(self) -> ReachabilityPattern:
        return self.algebra.pattern

    def __len__(self) -> int:
        return len(self.poset)


def skeleton(quiver: Quiver, representatives: Sequence[str] | None = None) -> Skeleton:
    """Collapse each path component to a representative; the poset is the algebra's condensation."""
    algebra = commuting_algebra(quiver)
    partition, poset = algebra.partition, algebra.condensation
    if representatives is None:
        representatives = poset.elements
    else:
        representatives = tuple(representatives)
        if len(representatives) != len(partition):
            raise QuiverError(
                f"expected {len(partition)} representatives, got {len(representatives)}"
            )
        for ci, rep in enumerate(representatives):
            if rep not in partition.components[ci]:
                raise QuiverError(f"representative {rep!r} is not in component {ci}")
    return Skeleton(quiver, poset, representatives, algebra)


class IncidenceAlgebra(_Record):
    """Span of the related pairs of a poset, with interval composition.

    Basis pairs (x, y) with x <= y, diagonal included, in row-major order.
    The product of (x, y) and (w, z) is (x, z) when y == w and zero
    otherwise: (x, y) times the sum of all basis pairs is the sum of (x, z)
    over y's row, which is how ``skeleton_iso_incidence`` reads the rule.
    """

    poset: Poset
    basis: tuple[tuple[int, int], ...]
    field: object = QQ

    @property
    def dimension(self) -> int:
        return len(self.basis)


def incidence_algebra(poset: Poset, field=QQ) -> IncidenceAlgebra:
    basis = tuple((i, j) for i, row in enumerate(poset.rows) for j in _bits(row))
    return IncidenceAlgebra(poset, basis, field)


class SkeletonIsomorphism(_Record):
    """Unit-by-unit identification of an incidence algebra with a commuting algebra.

    ``assignment`` maps each basis pair (x_i, x_j) of the incidence algebra to
    the matrix unit e(w_i, w_j) at the representatives.  Construction checks
    the Morita theorem: each unit times T, the sum of all D units with
    coefficient one, is the sum of e(w_i, w_l) over l in row j of the poset,
    and e(v, w) e(w, v) = e(v, v) for each of the n vertices v, with w its
    representative, so the representatives' idempotent is full.
    ``products_checked`` is D + n, one product per unit and per vertex.
    """

    skeleton: Skeleton
    algebra: CommutingAlgebra
    incidence: IncidenceAlgebra
    assignment: tuple[tuple[tuple[int, int], tuple[str, str]], ...]
    products_checked: int


def skeleton_iso_incidence(skel: Skeleton, field=QQ) -> SkeletonIsomorphism:
    """Map basis pairs to representative matrix units; check u T per unit, then fullness."""
    algebra = skel.algebra.over(field)
    inc = incidence_algebra(skel.poset, field)
    reps, rows, one, unit = skel.representatives, skel.poset.rows, field.one, algebra.basis_element
    assignment = tuple(((i, j), (reps[i], reps[j])) for i, j in inc.basis)
    total = algebra.element({pair: one for _, pair in assignment})
    at = [algebra.position(w) for w in reps]
    expected = [{at[l]: one for l in _bits(row)} for row in rows]  # row j's product, by column
    for (i, j), pair in assignment:
        got, want, p = algebra.multiply(unit(*pair), total).entries, expected[j], at[i]
        if len(got) != len(want) or any(r != p or want.get(c) != v for (r, c), v in got.items()):
            raise InternalInvariantError(f"incidence unit {(i, j)} times the sum of the units "
                                         f"does not match row {j}")
    membership = skel.partition.membership
    for v in algebra.order:
        w = reps[membership[v]]
        if algebra.multiply(unit(v, w), unit(w, v)) != unit(v, v):
            raise InternalInvariantError(f"e({v!r}, {w!r}) e({w!r}, {v!r}) is not e({v!r}, {v!r}): "
                                         "the representatives' idempotent is not full")
    return SkeletonIsomorphism(skel, algebra, inc, assignment, inc.dimension + len(algebra.order))


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

    The condensation, the skeleton's poset, must be P itself.  Equal elements
    make every component a single vertex, so its rows are the closure's: the
    support pattern equals leq too.
    """
    return commuting_algebra(hasse_quiver(poset)).condensation == poset
