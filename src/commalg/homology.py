"""Projective resolutions over poset representations, and global dimension.

A representation assigns a vector space over a field (QQ unless one is given)
to each element and a map to each cover; one a user builds is checked, on its
support, for composites independent of the route.  A minimal resolution builds
none: each term is a sum of projectives, kept as its tops, and Hom(P_s, P_t) is
K when t <= s, so each differential is a scalar matrix whose map at y is its
sparse columns at tops <= y, reduced where a kernel lives on two or more, once
per step for all elements with those tops; they are stored as the differential's
``Mat``.  No generator is selected where a lower cover's kernel, independent and
in the radical, has the kernel's size.  Each resolution is verified from those
columns with ranks of its own, d after d, and against the Mobius function by a
zeta sum over its tops, building no mu; the global dimension, below the chain
bound, is 3 over QQ and 4 over F_2 for RP^2.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import cached_property

from .errors import InternalInvariantError, QuiverError, _Record, _of_rows
from .fields import QQ
from .linalg import Mat, _image, reduce_columns
from .poset import Poset

__all__ = [
    "PosetRepresentation", "RepMorphism", "ProjectiveCover", "Resolution", "projective",
    "simple", "projective_cover", "minimal_resolution", "projective_dimension",
    "projective_dimensions", "global_dimension",
]


class PosetRepresentation(_Record):
    """Vector spaces over ``field`` on the elements, maps along the covers."""

    poset: Poset
    dims: tuple[int, ...]
    maps: Mapping[tuple[int, int], Mat]
    field: object = QQ

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
        out = {(i, i): Mat.identity(dims[i], self.field) for i in support}
        for j in poset.linear_extension():
            if not dims[j]:
                continue
            for i in support:
                if i == j or not rows[i] >> j & 1:
                    continue
                # a route through a zero space is the zero map
                vias = [maps[(y, j)] @ out[(i, y)] if dims[y]
                        else Mat(dims[j], dims[i], field=self.field)
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
        return Mat(self.dims[j], self.dims[i], field=self.field)

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def radical_generators(self, j: int) -> Mat:
        """Columns spanning the radical at j: images of the cover maps into j."""
        return Mat._of_columns([col for y in self.poset.lower_covers[j]
                                for col in self.maps[(y, j)].columns], self.dims[j], self.field)


class RepMorphism(_Record):
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
        return all(not d or blk.rank() == d for blk, d in zip(self.blocks, self.target.dims))

    def kernel(self) -> tuple[PosetRepresentation, "RepMorphism"]:
        """Kernel subrepresentation with its inclusion."""
        spaces = [blk.null_space() for blk in self.blocks]
        dims = tuple(len(free) for _, free in spaces)
        maps = {(i, j): src_map.take_rows(spaces[j][1]) @ spaces[i][0] if dims[i] and dims[j]
                else Mat(dims[j], dims[i], field=self.source.field)
                for (i, j), src_map in self.source.maps.items()}
        rep = PosetRepresentation(self.source.poset, dims, maps, self.source.field)
        incl = RepMorphism(rep, self.source, tuple(basis for basis, _ in spaces))
        return rep, incl


def _projective_sum(poset: Poset, tops: list[int], field=QQ) -> PosetRepresentation:
    """Direct sum of the projectives at the element indices ``tops``, repeats
    allowed; each cover map is the 0/1 inclusion of summands."""
    below = _below(poset, tops)
    at = [below.get(y, []) for y in range(len(poset))]
    maps = {(i, j): Mat._of_columns([{at[j].index(k): field.one} for k in at[i]], len(at[j]), field)
            for i, j in poset.covers}
    return _of_rows(PosetRepresentation, poset=poset, dims=tuple(map(len, at)), maps=maps,
                    field=field)


def projective(poset: Poset, x: str, field=QQ) -> PosetRepresentation:
    """The projective at x: one dimension on every y >= x, identity maps."""
    return _projective_sum(poset, [poset.position(x)], field)


def simple(poset: Poset, x: str, field=QQ) -> PosetRepresentation:
    """The simple at x: one dimension at x, zero elsewhere."""
    xi = poset.position(x)
    dims = tuple(1 if j == xi else 0 for j in range(len(poset)))
    maps = {(i, j): Mat(dims[j], dims[i], field=field) for (i, j) in poset.covers}
    return _of_rows(PosetRepresentation, poset=poset, dims=dims, maps=maps, field=field)


class ProjectiveCover(_Record):
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
        rad = rep.radical_generators(x).columns
        # e_c is chosen iff it lies outside span(radical, e_0 .. e_{c-1})
        units = [{c: rep.field.one} for c in range(d)]
        pivots = reduce_columns(dict(enumerate(rad + units)), rep.field)[0]
        summands += [(x, c - len(rad)) for c in pivots if c >= len(rad)]
    cover_rep = _projective_sum(poset, [x for x, _ in summands], rep.field)
    blocks = tuple(Mat._of_columns([rep.composite(x, y).columns[c] for x, c in summands
                                    if poset.rows[x] >> y & 1], d, rep.field)
                   for y, d in enumerate(rep.dims))
    surj = RepMorphism(cover_rep, rep, blocks)
    if not surj.is_surjective():
        raise InternalInvariantError("projective cover fails to surject")
    counts = Counter(poset.elements[x] for x, _ in summands)
    return ProjectiveCover(tuple(counts.items()), cover_rep, surj)


class Resolution(_Record):
    """A minimal projective resolution of the simple at element ``simple``.

    Term k sums the projectives at its tops, the element indices
    ``covers[k]``; term 0 is P_simple, which maps onto the simple.
    ``differentials[k - 1]`` is d_k: entry (i, j) scales P_{s_j} -> P_{t_i}
    for s and t the tops of terms k and k - 1."""

    poset: Poset
    simple: int
    covers: tuple[tuple[int, ...], ...]
    differentials: tuple[Mat, ...]

    def __init__(self, poset, simple, covers, differentials):
        self.__dict__.update(poset=poset, simple=simple, covers=covers, differentials=differentials)

    @property
    def length(self) -> int:
        return len(self.covers) - 1

    @property
    def multisets(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        els = self.poset.elements
        return tuple(tuple(Counter(els[t] for t in tops).items()) for tops in self.covers)

    def verify(self) -> None:
        """Recheck the resolution from its matrices, by ranks at each element where a term is
        nonzero: elsewhere every check reads 0 == 0 - 0.  A step ranks each set of columns
        once, in a memo of its own: nothing the construction reduced is read here."""
        poset, covers, x = self.poset, self.covers, self.simple
        if [(len(t), len(s)) for t, s in zip(covers, covers[1:])] != [
                (phi.nrows, phi.ncols) for phi in self.differentials]:
            raise InternalInvariantError("differentials do not fit the terms")
        if covers[:1] != ((x,),):
            raise InternalInvariantError(f"term 0 is not the projective cover of the simple at {x}")
        # d0 onto the simple: rank 1 at x; no rank where both terms vanish
        ranks, at, prev = {x: 1}, _below(poset, covers[0]), None
        for k, (phi, t, s) in enumerate(zip(self.differentials, covers, covers[1:]), 1):
            columns = phi.columns  # an entry of column j must sit at a top strictly below s_j
            faults = [(i, j) for j, col in enumerate(columns) for i in col
                      if t[i] == s[j] or not poset.rows[t[i]] >> s[j] & 1]
            if faults:
                i, j = min(faults)  # the first in row-major order
                if t[i] == s[j]:
                    raise InternalInvariantError(f"step {k} is not minimal at element {s[j]}")
                raise InternalInvariantError(f"morphism d{k} does not commute at {i, j}")
            # d0 lives at x alone, where no entry of d1 survives the checks above
            for y in sorted(s[j] for j, col in enumerate(columns)  # a map out of P_s is fixed at s
                            if prev and any(_image(prev, col).values())):
                raise InternalInvariantError(f"d{k - 1} after d{k} is nonzero at {y}")
            at_k, memo = _below(poset, s), {}  # one column's rank is its truth value
            new_ranks = {y: len(_reduce_once(memo, columns, js, phi.field)[0])
                         if js[1:] else int(bool(columns[js[0]])) for y, js in at_k.items()}
            if bad := [y for y in at.keys() | at_k.keys()
                       if new_ranks.get(y, 0) != len(at.get(y, ())) - ranks.get(y, 0)]:
                raise InternalInvariantError(f"homology at step {k - 1}, element {min(bad)}")
            ranks, at, prev = new_ranks, at_k, columns
        if bad := [y for y in at if ranks.get(y, 0) != len(at[y])]:
            raise InternalInvariantError(f"resolution not finished at {min(bad)}")


def _reduce_once(memo: dict, columns, labels, field, relations: bool = False):
    """``reduce_columns`` of the ``columns`` at ``labels``, run once per label tuple of ``memo``."""
    key = tuple(labels)
    if key not in memo:
        memo[key] = reduce_columns({j: columns[j] for j in key}, field, relations)
    return memo[key]


def _below(poset: Poset, tops) -> dict[int, list[int]]:
    """Per element some top reaches, the positions of the tops at or below it."""
    out: dict[int, list[int]] = {}
    for k, t in enumerate(tops):
        for y in poset.up_sets[t]:
            out.setdefault(y, []).append(k)
    return out


def minimal_resolution(poset: Poset, x: str, field=QQ) -> Resolution:
    """Minimal projective resolution of the simple at x over ``field``.

    Term 0 is P_x, with kernel P_x above x.  A kernel vector at y is a
    generator when it lies outside the span of the kernels at the lower
    covers and the vectors before it, the rule of ``projective_cover``; y has
    none when a lower cover's kernel has the size of y's.  Elements with the
    same tops below them share one null space per step.
    Running past longest_chain(poset) steps means the construction is broken."""
    xi = poset.position(x)
    tops, covers, differentials = (xi,), [(xi,)], []
    # where the kernel is nonzero, ascending: its basis vectors as {coordinate of the term: entry}
    kernels = {y: [{0: field.one}] for y in poset.up_sets[xi] if y != xi}
    for _ in range(poset.longest_chain()):
        n, tops, columns = len(tops), [], []
        for y, kernel in kernels.items():
            lower = [kernels[z] for z in poset.lower_covers[y] if z in kernels]
            if any(len(k) == len(kernel) for k in lower):
                continue  # an independent kernel inside radical(y) spans kernel(y)
            rad = [col for k in lower for col in k]
            if rad:
                pivots = reduce_columns(dict(enumerate(rad + kernel)), field)[0]
                kernel = [kernel[c - len(rad)] for c in pivots if c >= len(rad)]
            tops += [y] * len(kernel)
            columns += kernel
        if not tops:
            return Resolution(poset, xi, tuple(covers), tuple(differentials))
        covers.append(tuple(tops))
        differentials.append(Mat._of_columns(columns, n, field))
        # the map at y is the columns with tops <= y, whose entries already sit at tops <= y;
        # tops lie only where a kernel was, and one column, a kernel vector, has no null vector
        at, memo = _below(poset, tops), {}
        kernels = {y: list(nulls.values()) for y in kernels if len(at.get(y, ())) > 1
                   and (nulls := _reduce_once(memo, columns, at[y], field, True)[1])}
    raise InternalInvariantError(
        f"projective resolution of {x!r} exceeded the chain bound {poset.longest_chain()}")


def projective_dimension(poset: Poset, x: str, field=QQ) -> int:
    """Length of the minimal resolution of the simple at x, once it passes
    ``Resolution.verify`` and its alternating top counts are mu(x, .): as mu
    inverts zeta, the signed count of tops at or below each y is delta(x, y)."""
    res = minimal_resolution(poset, x, field)
    res.verify()
    zeta, up = [0] * len(poset), poset.up_sets
    zeta[res.simple] = -1
    for sign, tops in zip((1, -1) * len(res.covers), res.covers):
        for t in tops:
            for y in up[t]:
                zeta[y] += sign
    if any(zeta):
        raise InternalInvariantError(f"resolution of {x!r} disagrees with the Mobius function")
    return res.length


def projective_dimensions(poset: Poset, field=QQ) -> tuple[int, ...]:
    """Projective dimension of each element's simple, in element order; none
    may exceed the longest chain's element count minus one."""
    out = tuple(projective_dimension(poset, x, field) for x in poset.elements)
    bound = poset.longest_chain() - 1
    if out and max(out) > bound:
        raise InternalInvariantError(f"global dimension {max(out)} exceeds the chain bound {bound}")
    return out


def global_dimension(poset: Poset, field=QQ) -> int:
    """Max projective dimension of the simples; see ``projective_dimensions``."""
    if not len(poset):
        raise QuiverError("the empty poset has no simples, so no global dimension")
    return max(projective_dimensions(poset, field))
