"""Projective resolutions over poset representations and global dimension.

A representation of a finite poset assigns a rational vector space to each
element and a map along each cover, with composites independent of the
route (checked at construction).  Simples are resolved by iterated minimal
projective covers; the number of steps is bounded by the longest chain of
the poset, so no projective dimension, and hence not the global
dimension, exceeds the number of elements in that chain minus one.  All
linear algebra is exact over the rationals, where 0/1 inclusions and other
integral entries stay Python ints (see ``RationalField``).

Work lives on the support, the elements of nonzero dimension: a resolution
term is supported on the up-set of its tops, so most of it is zero.
Composites are stored and checked for route independence on the support
only, where a route through a zero space counts as the zero map, and no
morphism check or kernel map multiplies through a zero space.  That every
related pair has a cover route depends only on the order, so
``Poset.lower_covers`` checks it once per poset.  A kernel basis is the
identity on its free rows, which hold the kernel coordinates: a kernel
cover map is read off them, with no linear solve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping

from .errors import InternalInvariantError, QuiverError
from .fields import QQ
from .linalg import Mat
from .poset import Poset

__all__ = [
    "PosetRepresentation",
    "RepMorphism",
    "ProjectiveCover",
    "Resolution",
    "projective",
    "simple",
    "projective_cover",
    "minimal_resolution",
    "projective_dimension",
    "projective_dimensions",
    "global_dimension",
]


@dataclass(frozen=True)
class PosetRepresentation:
    """Vector spaces on the elements, exact maps along the covers."""

    poset: Poset
    dims: tuple[int, ...]
    maps: Mapping[tuple[int, int], Mat]

    def __post_init__(self):
        m = len(self.poset)
        if len(self.dims) != m or any(d < 0 for d in self.dims):
            raise QuiverError("dims must give one nonnegative size per element")
        covers = set(self.poset.covers)
        if set(self.maps) != covers:
            raise QuiverError("maps must be keyed by exactly the cover pairs")
        for (i, j), mat in self.maps.items():
            if mat.nrows != self.dims[j] or mat.ncols != self.dims[i]:
                raise QuiverError(
                    f"map for cover ({i}, {j}) has shape {mat.nrows}x{mat.ncols}, "
                    f"expected {self.dims[j]}x{self.dims[i]}"
                )
        self._composites  # noqa: B018  (functoriality is checked eagerly)

    @cached_property
    def _composites(self) -> dict[tuple[int, int], Mat]:
        """Composite map for every related pair in the support; raises if route-dependent."""
        poset, dims, maps = self.poset, self.dims, self.maps
        rows, lower = poset.rows, poset.lower_covers
        support = [i for i, d in enumerate(dims) if d]
        out = {(i, i): Mat.identity(dims[i]) for i in support}
        for j in poset.linear_extension():
            if not dims[j]:
                continue
            for i in support:
                if i == j or not rows[i] >> j & 1:
                    continue
                # a route through a zero space is the zero map
                vias = [maps[(y, j)] @ out[(i, y)] if dims[y] else Mat(dims[j], dims[i])
                        for y in lower[j] if rows[i] >> y & 1]
                if any(via != vias[0] for via in vias):
                    raise QuiverError(
                        f"maps from {poset.elements[i]!r} to "
                        f"{poset.elements[j]!r} depend on the route"
                    )
                out[(i, j)] = vias[0]
        return out

    def composite(self, i: int, j: int) -> Mat:
        """The map from element i to element j (requires i <= j)."""
        m = len(self.poset)
        if not (0 <= i < m and 0 <= j < m):
            raise QuiverError(f"indices ({i}, {j}) out of range for {m} elements")
        if not self.poset.rows[i] >> j & 1:
            raise QuiverError("composite requires related elements")
        if (i, j) in self._composites:
            return self._composites[(i, j)]
        return Mat(self.dims[j], self.dims[i])

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def radical_generators(self, j: int) -> Mat:
        """Columns spanning the radical at j: images of the cover maps into j."""
        blocks = (self.maps[(y, j)] for y in self.poset.lower_covers[j] if self.dims[y])
        return reduce(Mat.hstack, blocks, Mat(self.dims[j], 0))


@dataclass(frozen=True)
class RepMorphism:
    """Element-wise linear maps commuting with the structure maps."""

    source: PosetRepresentation
    target: PosetRepresentation
    blocks: tuple[Mat, ...]

    def __post_init__(self):
        if self.source.poset != self.target.poset:
            raise QuiverError("morphism endpoints live over different posets")
        m = len(self.source.poset)
        if len(self.blocks) != m:
            raise QuiverError("one block per element required")
        for i, blk in enumerate(self.blocks):
            if blk.nrows != self.target.dims[i] or blk.ncols != self.source.dims[i]:
                raise QuiverError(f"block {i} has the wrong shape")
        for (i, j), src_map in self.source.maps.items():
            if not (self.source.dims[i] and self.target.dims[j]):
                continue  # both sides are the empty map
            lhs = self.target.maps[(i, j)] @ self.blocks[i]
            rhs = self.blocks[j] @ src_map
            if lhs != rhs:
                raise InternalInvariantError(
                    f"morphism does not commute with the cover ({i}, {j})"
                )

    def is_surjective(self) -> bool:
        return all(
            blk.rank() == self.target.dims[i] for i, blk in enumerate(self.blocks)
        )

    def kernel(self) -> tuple[PosetRepresentation, "RepMorphism"]:
        """Kernel subrepresentation with its inclusion."""
        spaces = [blk.null_space() for blk in self.blocks]
        dims = tuple(len(free) for _, free in spaces)
        maps = {(i, j): src_map.take_rows(spaces[j][1]) @ spaces[i][0] if dims[i] and dims[j]
                else Mat(dims[j], dims[i]) for (i, j), src_map in self.source.maps.items()}
        rep = PosetRepresentation(self.source.poset, dims, maps)
        incl = RepMorphism(rep, self.source, tuple(basis for basis, _ in spaces))
        return rep, incl

    def compose(self, inner: "RepMorphism") -> "RepMorphism":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise QuiverError("composition endpoints do not match")
        blocks = tuple(a @ b if a.nrows and b.ncols else Mat(a.nrows, b.ncols)
                       for a, b in zip(self.blocks, inner.blocks))
        return RepMorphism(inner.source, self.target, blocks)


def _projective_sum(poset: Poset, tops: list[int]) -> PosetRepresentation:
    """Direct sum of the projectives at the element indices ``tops``.

    Repeats are allowed; each cover map is the 0/1 inclusion of summands.
    """
    rows = poset.rows
    at = [[k for k, x in enumerate(tops) if rows[x] >> y & 1] for y in range(len(poset))]
    maps = {}
    for (i, j) in poset.covers:
        mat = Mat(len(at[j]), len(at[i]))
        for col, k in enumerate(at[i]):
            mat.rows[at[j].index(k)][col] = QQ.one
        maps[(i, j)] = mat
    return PosetRepresentation(poset, tuple(len(a) for a in at), maps)


def projective(poset: Poset, x: str) -> PosetRepresentation:
    """The projective at x: one dimension on every y >= x, identity maps."""
    return _projective_sum(poset, [poset.position(x)])


def simple(poset: Poset, x: str) -> PosetRepresentation:
    """The simple at x: one dimension at x, zero elsewhere."""
    xi = poset.position(x)
    dims = tuple(1 if j == xi else 0 for j in range(len(poset)))
    maps = {(i, j): Mat(dims[j], dims[i]) for (i, j) in poset.covers}
    return PosetRepresentation(poset, dims, maps)


@dataclass(frozen=True)
class ProjectiveCover:
    """A projective cover: multiset of projectives and the surjection."""

    multiset: tuple[tuple[str, int], ...]
    module: PosetRepresentation
    surjection: RepMorphism


def projective_cover(rep: PosetRepresentation) -> ProjectiveCover:
    """Minimal projective cover of a nonzero representation.

    The multiplicity of the projective at x is the dimension of the top
    (the quotient by the radical) at x; each chosen basis vector of the top
    is a generator, and its image at y >= x is a column of the composite.
    """
    if rep.is_zero():
        raise QuiverError("the zero representation has no projective cover")
    poset = rep.poset
    # one summand per generator: (element index, basis index at it)
    summands: list[tuple[int, int]] = []
    for x, d in enumerate(rep.dims):
        if d == 0:
            continue
        rad = rep.radical_generators(x)
        # e_c is chosen iff it lies outside span(radical, e_0 .. e_{c-1})
        _, pivots = rad.hstack(Mat.identity(d)).rref()
        summands += [(x, c - rad.ncols) for c in pivots if c >= rad.ncols]
    cover_rep = _projective_sum(poset, [x for x, _ in summands])
    blocks = tuple(
        Mat.from_columns(
            [rep.composite(x, y).column(c) for x, c in summands if poset.rows[x] >> y & 1],
            rep.dims[y],
        )
        for y in range(len(poset))
    )
    surj = RepMorphism(cover_rep, rep, blocks)
    if not surj.is_surjective():
        raise InternalInvariantError("projective cover fails to surject")
    counts = Counter(poset.elements[x] for x, _ in summands)
    return ProjectiveCover(tuple(counts.items()), cover_rep, surj)


@dataclass(frozen=True)
class Resolution:
    """Iterated projective covers of a module, usually a simple.

    maps[0] sends covers[0] onto the module; maps[k] for k >= 1 is the
    composite covers[k] -> kernel -> covers[k-1].  ``verify`` reruns the
    exactness and minimality rank checks from the stored matrices alone.
    """

    module: PosetRepresentation
    covers: tuple[PosetRepresentation, ...]
    multisets: tuple[tuple[tuple[str, int], ...], ...]
    maps: tuple[RepMorphism, ...]

    @property
    def length(self) -> int:
        return len(self.covers) - 1

    def verify(self) -> None:
        poset = self.module.poset
        m = len(poset)
        for k, morphism in enumerate(self.maps):
            target = self.module if k == 0 else self.covers[k - 1]
            for y in range(m):
                blk = morphism.blocks[y]
                if k == 0:
                    # surjectivity onto the module
                    if blk.rank() != target.dims[y]:
                        raise InternalInvariantError(f"cover 0 not onto at {y}")
                else:
                    prev = self.maps[k - 1].blocks[y]
                    composite = prev @ blk
                    if not composite.is_zero():
                        raise InternalInvariantError(
                            f"d{k - 1} after d{k} is nonzero at {y}"
                        )
                    # exactness: im d_k = ker d_{k-1}, by rank count
                    if blk.rank() != target.dims[y] - prev.rank():
                        raise InternalInvariantError(
                            f"homology at step {k - 1}, element {y}"
                        )
                    # minimality: the image lies inside the radical
                    rad = self.covers[k - 1].radical_generators(y)
                    if rad.hstack(blk).rank() != rad.rank():
                        raise InternalInvariantError(
                            f"step {k} is not minimal at element {y}"
                        )
        last = self.maps[-1]
        for y in range(m):
            if last.blocks[y].rank() != last.source.dims[y]:
                raise InternalInvariantError(f"resolution not finished at {y}")


def minimal_resolution(poset: Poset, x: str) -> Resolution:
    """Minimal projective resolution of the simple at x.

    Terminates within longest_chain(poset) cover steps; running past that
    bound means the construction itself is broken.
    """
    target = simple(poset, x)
    bound = poset.longest_chain()
    covers: list[PosetRepresentation] = []
    multisets = []
    maps: list[RepMorphism] = []
    current = target
    inclusion: RepMorphism | None = None
    for _ in range(bound):
        step = projective_cover(current)
        covers.append(step.module)
        multisets.append(step.multiset)
        maps.append(step.surjection if inclusion is None
                    else inclusion.compose(step.surjection))
        kernel, incl = step.surjection.kernel()
        if kernel.is_zero():
            return Resolution(target, tuple(covers), tuple(multisets), tuple(maps))
        current, inclusion = kernel, incl
    raise InternalInvariantError(
        f"projective resolution of {x!r} exceeded the chain bound {bound}"
    )


def projective_dimension(poset: Poset, x: str) -> int:
    return minimal_resolution(poset, x).length


def projective_dimensions(poset: Poset) -> tuple[int, ...]:
    """Projective dimension of each element's simple, in element order.

    None may exceed the longest chain's element count minus one.
    """
    out = tuple(projective_dimension(poset, x) for x in poset.elements)
    bound = poset.longest_chain() - 1
    if out and max(out) > bound:
        raise InternalInvariantError(
            f"global dimension {max(out)} exceeds the chain bound {bound}"
        )
    return out


def global_dimension(poset: Poset) -> int:
    """Max projective dimension of the simples; see ``projective_dimensions``."""
    if not len(poset):
        raise QuiverError("the empty poset has no simples, so no global dimension")
    return max(projective_dimensions(poset))
