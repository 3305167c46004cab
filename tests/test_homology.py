import hashlib
import itertools
import pickle
import random
from collections import Counter

import pytest

from commalg import (
    QQ,
    InternalInvariantError,
    Poset,
    PosetRepresentation,
    PrimeField,
    QuiverError,
    RepMorphism,
    Resolution,
    global_dimension,
    minimal_resolution,
    projective,
    projective_cover,
    projective_dimension,
    simple,
)
from commalg.homology import _below
from commalg.linalg import Mat
from commalg.randgen import random_poset


def replace(res, **changes):
    """The resolution ``res`` with the given fields changed."""
    return Resolution(**{**vars(res), **changes})


def diamond():
    return Poset.from_pairs("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def chain(k):
    els = [f"x{i}" for i in range(k)]
    return Poset.from_pairs(els, zip(els, els[1:]))


def test_projective_shape():
    p = diamond()
    proj = projective(p, "a")
    assert proj.dims == (1, 1, 1, 1)
    assert projective(p, "b").dims == (0, 1, 0, 1)
    assert projective(p, "d").dims == (0, 0, 0, 1)
    assert proj.composite(0, 3).rows == [[1]]
    with pytest.raises(QuiverError):
        projective(p, "zz")


def test_simple_shape():
    p = diamond()
    s = simple(p, "b")
    assert s.dims == (0, 1, 0, 0)
    assert s.total_dim() == 1
    assert not s.is_zero()
    with pytest.raises(QuiverError):
        simple(p, "zz")


def test_representation_validation():
    p = chain(2)
    with pytest.raises(QuiverError):
        PosetRepresentation(p, (1,), {})  # wrong dims length
    with pytest.raises(QuiverError):
        PosetRepresentation(p, (1, 1), {})  # missing cover map
    with pytest.raises(QuiverError):
        PosetRepresentation(p, (1, 1), {(0, 1): Mat(2, 1)})  # bad shape
    with pytest.raises(QuiverError):
        PosetRepresentation(p, (1, 1), {(0, 1): Mat(1, 1), (1, 0): Mat(1, 1)})


def test_functoriality_enforced():
    # two routes around the diamond must agree
    p = diamond()
    maps = {
        (0, 1): Mat(1, 1, [[1]]),
        (0, 2): Mat(1, 1, [[1]]),
        (1, 3): Mat(1, 1, [[1]]),
        (2, 3): Mat(1, 1, [[2]]),  # disagrees through c
    }
    with pytest.raises(QuiverError, match="route"):
        PosetRepresentation(p, (1, 1, 1, 1), maps)
    maps[(2, 3)] = Mat(1, 1, [[1]])
    rep = PosetRepresentation(p, (1, 1, 1, 1), maps)
    assert rep.composite(0, 3) == Mat(1, 1, [[1]])


def test_route_through_a_zero_space_still_counts():
    # a -> c -> d passes through the zero space at c, so it is the zero map
    # and disagrees with a -> b -> d
    p = diamond()
    maps = {
        (0, 1): Mat(1, 1, [[1]]),
        (0, 2): Mat(0, 1),
        (1, 3): Mat(1, 1, [[1]]),
        (2, 3): Mat(1, 0),
    }
    with pytest.raises(QuiverError, match="route"):
        PosetRepresentation(p, (1, 1, 0, 1), maps)
    maps[(1, 3)] = Mat(1, 1, [[0]])
    rep = PosetRepresentation(p, (1, 1, 0, 1), maps)
    assert rep.composite(0, 3) == Mat(1, 1, [[0]])
    into, out_of = rep.composite(0, 2), rep.composite(2, 3)
    assert (into.nrows, into.ncols) == (0, 1)
    assert (out_of.nrows, out_of.ncols) == (1, 0)
    with pytest.raises(QuiverError):
        rep.composite(1, 2)  # still incomparable


def test_related_pair_with_no_cover_route_is_caught(monkeypatch):
    # drop the cover x1 < x2 from the order's Hasse diagram: x0 < x2 and
    # x1 < x2 are then related pairs no cover route reaches
    p = chain(3)
    monkeypatch.setitem(p.__dict__, "covers", ((0, 1),))
    with pytest.raises(InternalInvariantError, match="related pair with no cover route"):
        PosetRepresentation(p, (1, 1, 1), {(0, 1): Mat(1, 1, [[1]])})


def test_a_dropped_diamond_cover_is_caught(monkeypatch):
    # without the cover a < b, a's row is more than a and the rows of c and d
    p = diamond()
    monkeypatch.setitem(p.__dict__, "covers", ((0, 2), (1, 3), (2, 3)))
    with pytest.raises(InternalInvariantError, match="related pair with no cover route"):
        p.lower_covers


def representation_resolution(poset, x, field=QQ):
    """The reference route on representations: iterated projective covers of
    kernels.  One step per term: (the module covered, its cover, and the map
    into the previous term as per-element blocks, the cover followed by the
    kernel's inclusion)."""
    covered, inclusion, steps = simple(poset, x, field), None, []
    while not covered.is_zero():
        cover = projective_cover(covered)
        blocks = cover.surjection.blocks if inclusion is None else tuple(
            a @ b for a, b in zip(inclusion.blocks, cover.surjection.blocks))
        steps.append((covered, cover, blocks))
        covered, inclusion = cover.surjection.kernel()
    return steps


def rp2_face_poset():
    """Face poset of the 6-vertex RP2 triangulation with a bottom and a top."""
    triangles = ["123", "134", "145", "156", "126", "235", "245", "246", "346", "356"]
    edges = sorted({t[a] + t[b] for t in triangles for a, b in ((0, 1), (0, 2), (1, 2))})
    pairs = [("bot", f"p{v}") for v in "123456"]
    pairs += [(f"p{v}", f"e{e}") for e in edges for v in e]
    pairs += [(f"e{e}", f"t{t}") for t in triangles for e in edges if set(e) <= set(t)]
    pairs += [(f"t{t}", "top") for t in triangles]
    elements = ["bot", *(f"p{v}" for v in "123456"), *(f"e{e}" for e in edges),
                *(f"t{t}" for t in triangles), "top"]
    return Poset.from_pairs(elements, pairs)


@pytest.mark.parametrize("poset, gldim", [(diamond(), 2), (rp2_face_poset(), 3)])
def test_no_product_through_a_zero_space(monkeypatch, poset, gldim):
    from commalg.homology import projective_dimensions

    empty = []
    matmul = Mat.__matmul__

    def counting(a, b):
        if not (a.nrows and a.ncols and b.nrows and b.ncols):
            empty.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Mat, "__matmul__", counting)
    assert max(projective_dimensions(poset)) == gldim
    assert empty == []


@pytest.mark.parametrize("poset, dims, reduces", [
    pytest.param(chain(6), (1, 1, 1, 1, 1, 0), False, id="chain6"),
    pytest.param(rp2_face_poset(), (3,) * 7 + (2,) * 15 + (1,) * 10 + (0,), True, id="rp2")])
def test_resolutions_eliminate_only_on_two_or_more_columns(monkeypatch, poset, dims, reduces):
    # one column is a nonzero kernel vector: it has no null vector and rank 1, so
    # neither the construction nor verify reduces it; on a chain every step has one
    # top, a null space at each element above it would take one column, and above
    # the top its lower cover's kernel has the same size, so nothing is reduced
    import commalg.homology as homology

    counts, real = [], homology.reduce_columns

    def counting(columns, *args):
        counts.append(len(columns))
        return real(columns, *args)

    monkeypatch.setattr(homology, "reduce_columns", counting)
    assert homology.projective_dimensions(poset, QQ) == dims
    if reduces:
        assert counts and min(counts) >= 2
    else:
        assert counts == []


SEEDED_POSETS = [pytest.param(rp2_face_poset(), id="rp2")] + [
    pytest.param(random_poset(m, 1000 * m + s, 0.3), id=f"random_poset_{m}_{s}")
    for m in (10, 14, 18) for s in range(2)
]


@pytest.mark.parametrize("poset", SEEDED_POSETS)
def test_resolutions_solve_no_linear_system(monkeypatch, poset):
    from commalg.homology import projective_dimensions

    expected = projective_dimensions(poset)

    def refuse(self, rhs):
        raise AssertionError("a resolution solved a linear system")

    monkeypatch.setattr(Mat, "solve", refuse)
    assert projective_dimensions(poset) == expected


@pytest.mark.parametrize("poset", SEEDED_POSETS)
def test_kernel_maps_match_solving_for_the_coordinates(monkeypatch, poset):
    kernels = []
    kernel = RepMorphism.kernel

    def recording(self):
        rep, incl = kernel(self)
        kernels.append((self, rep, incl))
        return rep, incl

    monkeypatch.setattr(RepMorphism, "kernel", recording)
    for x in poset.elements:
        representation_resolution(poset, x)
    assert kernels
    for morphism, rep, incl in kernels:
        bases = incl.blocks
        for (i, j), src_map in morphism.source.maps.items():
            if rep.dims[i] and rep.dims[j]:
                # the reference: coordinates of the image in the kernel basis at j
                assert rep.maps[(i, j)] == bases[j].solve(src_map @ bases[i])
            else:
                assert rep.maps[(i, j)].is_zero()


@pytest.mark.parametrize("poset", SEEDED_POSETS)
def test_scalar_differentials_match_the_representation_route(poset):
    # the generators are chosen by the same rule, so each scalar differential,
    # restricted at y, is the composite the representation route builds there
    for x in poset.elements:
        res, steps = minimal_resolution(poset, x), representation_resolution(poset, x)
        assert res.multisets == tuple(cover.multiset for _, cover, _ in steps)
        # term 0: the reference covers the simple by P_x, the identity at x
        xi = poset.position(x)
        assert res.covers[0] == (xi,) and steps[0][1].multiset == ((x, 1),)
        assert [b.rows for b in steps[0][2]] == [[[1]] if y == xi else []
                                                 for y in range(len(poset))]
        for k, phi in enumerate(res.differentials, 1):
            at_prev, at = _below(poset, res.covers[k - 1]), _below(poset, res.covers[k])
            assert tuple(_block(phi, at_prev.get(y, []), at.get(y, []))
                         for y in range(len(poset))) == steps[k][2]


def _block(phi, rows, cols):
    """The block of ``phi`` on the given rows and columns, its entries as they are."""
    at = {i: r for r, i in enumerate(rows)}
    return Mat._of_columns([{at[i]: a for i, a in phi.columns[j].items() if i in at}
                            for j in cols], len(rows), phi.field)


@pytest.mark.parametrize("poset, field, gldim", [
    pytest.param(rp2_face_poset(), QQ, 3, id="rp2-QQ"),
    pytest.param(rp2_face_poset(), PrimeField(2), 4, id="rp2-F2"),
    pytest.param(random_poset(40, 40000, 0.3), QQ, 4, id="random_poset_40")])
def test_resolutions_build_and_read_no_dense_row(monkeypatch, poset, field, gldim):
    # a differential is its sparse columns from construction through verify
    def refuse(self):
        raise AssertionError("a resolution built or read a dense row")

    monkeypatch.setattr(Mat, "rows", property(refuse))
    assert global_dimension(poset, field) == gldim


def _read(columns):
    """A reduction's input as it reads: each label with its column's entries by row."""
    return tuple((j, tuple(sorted(col.items()))) for j, col in columns.items())


@pytest.mark.parametrize("poset", SEEDED_POSETS)
def test_resolutions_reduce_each_label_set_once_per_step(monkeypatch, poset):
    # the reference walks each resolution's own differentials: per step, the null spaces
    # and verify's ranks reduce each set of two or more labels at an element once, and
    # generator selection runs at y only with a radical and no lower cover whose kernel
    # has the size of y's, since that kernel, independent and in the radical, spans y's
    import commalg.homology as homology

    real, calls = homology.reduce_columns, []

    def recording(columns, field, relations=False):
        calls.append((relations, _read(columns)))
        return real(columns, field, relations)

    monkeypatch.setattr(homology, "reduce_columns", recording)
    for x in poset.elements:
        del calls[:]
        res = minimal_resolution(poset, x)
        built = Counter(calls)
        del calls[:]
        res.verify()
        checked = Counter(calls)
        selected, nulls, ranks = Counter(), Counter(), Counter()
        kernels = {y: [{0: QQ.one}] for y in poset.up_sets[res.simple] if y != res.simple}
        for k in range(1, len(res.covers) + 1):
            for y, kernel in kernels.items():
                lower = [kernels[z] for z in poset.lower_covers[y] if z in kernels]
                if lower and all(len(kz) != len(kernel) for kz in lower):
                    selected[(False, _read(dict(enumerate(sum(lower, []) + kernel))))] += 1
            if k == len(res.covers):
                break
            columns = res.differentials[k - 1].columns
            at = {y: {j: columns[j] for j in js}
                  for y, js in _below(poset, res.covers[k]).items() if js[1:]}
            for cols in {tuple(cols): cols for cols in at.values()}.values():  # one per label set
                nulls[(True, _read(cols))] += 1
                ranks[(False, _read(cols))] += 1
            kernels = {y: list(vs.values()) for y, cols in at.items()
                       if (vs := real(cols, QQ, True)[1])}
        assert not kernels  # the last step left nothing to cover
        assert built == selected + nulls
        assert checked == ranks


def _rank(columns, labels, phi):
    return Mat._of_columns([columns[j] for j in labels], phi.nrows, phi.field).rank()


def test_verify_ranks_the_columns_it_is_given():
    # verify keeps its own ranks: once a resolution is built, a column of d_k zeroed, or
    # set to an earlier column at the same top, drops the rank at that top, and the least
    # element whose rank dropped is named, also where the construction reduced its labels
    shared = 0
    for poset in (param.values[0] for param in SEEDED_POSETS):
        for x in poset.elements:
            res = minimal_resolution(poset, x)
            for k, phi in enumerate(res.differentials, 1):
                at, tops = _below(poset, res.covers[k]), res.covers[k]
                for j, i in [(j, None) for j in range(phi.ncols)] + [
                        (j, tops.index(t)) for j, t in enumerate(tops) if tops.index(t) < j]:
                    cols = list(phi.columns)
                    cols[j] = {} if i is None else cols[i]
                    tampered = replace(res, differentials=res.differentials[:k - 1] + (
                        Mat._of_columns(cols, phi.nrows, phi.field),) + res.differentials[k:])
                    y = min(y for y, js in at.items()
                            if _rank(cols, js, phi) < _rank(phi.columns, js, phi))
                    shared += len(at[y]) > 1
                    with pytest.raises(InternalInvariantError,
                                       match=f"^homology at step {k - 1}, element {y}$"):
                        tampered.verify()
    assert shared


def test_steps_past_the_cover_build_no_morphism(monkeypatch):
    import commalg.homology as homology

    built = []
    for cls in (RepMorphism, PosetRepresentation):
        def counting(self, check=cls.__post_init__):
            built.append(self)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)

    def refuse(*args, **kwargs):
        raise AssertionError("a resolution built a representation")

    # the unchecked constructors too: a projective sum or a simple skips __post_init__
    for name in ("projective_cover", "simple", "projective", "_projective_sum", "_of_rows"):
        monkeypatch.setattr(homology, name, refuse)
    monkeypatch.setattr(RepMorphism, "kernel", refuse)
    p = rp2_face_poset()
    for x in p.elements:
        minimal_resolution(p, x).verify()
        homology.projective_dimension(p, x)
    assert homology.projective_dimensions(p) == tuple(minimal_resolution(p, x).length
                                                      for x in p.elements)
    assert global_dimension(p) == 3
    assert built == []


def test_composite_requires_related():
    p = diamond()
    rep = projective(p, "a")
    with pytest.raises(QuiverError):
        rep.composite(1, 2)  # b and c are incomparable


@pytest.mark.parametrize("i, j", [(0, -1), (-1, 2), (0, 3)])
def test_composite_rejects_out_of_range_indices(i, j):
    # a negative index would shift by a negative count or read another row
    rep = projective(chain(3), "x0")
    with pytest.raises(QuiverError, match=rf"indices \({i}, {j}\) out of range for 3 elements"):
        rep.composite(i, j)


def test_morphism_validation():
    p = chain(2)
    s = simple(p, "x0")
    proj = projective(p, "x0")
    # projection onto the top commutes
    blocks = (Mat(1, 1, [[1]]), Mat(0, 1))
    morph = RepMorphism(proj, s, blocks)
    assert morph.is_surjective()
    with pytest.raises(QuiverError):
        RepMorphism(proj, s, (Mat(1, 1),))  # wrong block count
    with pytest.raises(QuiverError):
        RepMorphism(proj, s, (Mat(2, 1), Mat(0, 1)))  # wrong shape


def test_morphism_must_commute_on_nonzero_covers():
    p = chain(2)
    proj = projective(p, "x0")
    with pytest.raises(InternalInvariantError, match=r"does not commute with the cover \(0, 1\)"):
        RepMorphism(proj, proj, (Mat(1, 1, [[1]]), Mat(1, 1)))


def test_morphism_kernel():
    p = chain(2)
    proj = projective(p, "x0")
    s = simple(p, "x0")
    morph = RepMorphism(proj, s, (Mat(1, 1, [[1]]), Mat(0, 1)))
    ker, incl = morph.kernel()
    assert ker.dims == (0, 1)  # the radical: simple at x1
    assert incl.source is ker and incl.target is proj
    # inclusion really embeds
    assert incl.blocks[1].rank() == 1


def test_projective_cover_of_simple():
    p = chain(2)
    cover = projective_cover(simple(p, "x0"))
    assert cover.multiset == (("x0", 1),)
    assert cover.module.dims == projective(p, "x0").dims
    assert cover.surjection.is_surjective()
    with pytest.raises(QuiverError):
        projective_cover(PosetRepresentation(
            p, (0, 0), {(0, 1): Mat(0, 0)}))


def test_projective_cover_of_projective_is_itself():
    p = diamond()
    for x in p.elements:
        cover = projective_cover(projective(p, x))
        assert cover.multiset == ((x, 1),)


def test_resolution_point():
    p = chain(1)
    res = minimal_resolution(p, "x0")
    assert res.length == 0
    assert res.multisets == ((("x0", 1),),)
    res.verify()


def test_resolution_chain3():
    p = chain(3)
    res = minimal_resolution(p, "x0")
    assert res.length == 1
    assert res.multisets == ((("x0", 1),), (("x1", 1),))
    res.verify()
    assert projective_dimension(p, "x2") == 0  # maximal element is projective
    assert global_dimension(p) == 1


def test_resolution_diamond():
    p = diamond()
    res = minimal_resolution(p, "a")
    assert res.length == 2
    assert res.multisets == (
        (("a", 1),),
        (("b", 1), ("c", 1)),
        (("d", 1),),
    )
    res.verify()
    assert projective_dimension(p, "a") == 2
    assert projective_dimension(p, "d") == 0
    assert global_dimension(p) == 2


def test_global_dimension_values():
    assert global_dimension(chain(1)) == 0
    assert global_dimension(chain(2)) == 1
    assert global_dimension(chain(5)) == 1
    assert global_dimension(Poset.from_pairs("ab", [])) == 0
    with pytest.raises(QuiverError, match="empty poset"):
        global_dimension(Poset((), ()))


@pytest.mark.parametrize("seed", range(60))
def test_global_dimension_bound_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng.randint(1, 8), rng)
    gd = global_dimension(p)
    assert 0 <= gd <= p.longest_chain() - 1
    # an antichain is semisimple-like: every simple is projective
    if p.longest_chain() == 1:
        assert gd == 0
    if gd == 0:
        # no strict relations at all
        assert p.longest_chain() == 1


@pytest.mark.parametrize("seed", range(25))
def test_resolutions_verify_random(seed):
    rng = random.Random(seed)
    p = random_poset(rng.randint(1, 6), rng)
    for x in p.elements:
        res = minimal_resolution(p, x)
        res.verify()
        assert res.length <= p.longest_chain() - 1
        # step zero covers the simple by the projective at x
        assert res.multisets[0] == ((x, 1),)


def test_resolution_verify_catches_tampering():
    p = chain(3)
    res = minimal_resolution(p, "x0")
    # swap in a zero map at the deepest step
    phi = res.differentials[-1]
    broken = replace(res, differentials=res.differentials[:-1] + (Mat(phi.nrows, phi.ncols),))
    with pytest.raises(InternalInvariantError, match="homology at step 0, element 1"):
        broken.verify()


def test_resolution_verify_catches_a_cover_that_is_not_onto():
    # P_x1 -> P_x1 -> 0 fits and is exact, but P_x1 does not map onto S_x0
    res = minimal_resolution(chain(2), "x0")
    assert res.covers == ((0,), (1,))
    with pytest.raises(InternalInvariantError,
                       match="term 0 is not the projective cover of the simple at 0"):
        replace(res, covers=((1,), (1,))).verify()


def test_resolution_verify_catches_a_resolution_with_no_terms():
    res = minimal_resolution(chain(2), "x0")
    with pytest.raises(InternalInvariantError,
                       match="term 0 is not the projective cover of the simple at 0"):
        replace(res, covers=(), differentials=()).verify()


def test_resolution_verify_catches_a_nonzero_composite():
    p = diamond()
    res = minimal_resolution(p, "a")
    d1 = res.differentials[0]
    # a map out of the projective at d is any vector over b and c, both
    # below d: take one that d1 does not send to zero
    column = next(c for c in (Mat(2, 1, [[1], [0]]), Mat(2, 1, [[0], [1]]))
                  if not (d1 @ c).is_zero())
    with pytest.raises(InternalInvariantError, match="d1 after d2 is nonzero at 3"):
        replace(res, differentials=(d1, column)).verify()


def test_resolution_verify_catches_a_step_that_is_not_minimal():
    # over a point: P_x0 -> P_x0 by [1] maps an entry from P_x0 to P_x0
    res = minimal_resolution(chain(1), "x0")
    bad = replace(res, covers=((0,), (0,)), differentials=(Mat(1, 1, [[1]]),))
    with pytest.raises(InternalInvariantError, match="step 1 is not minimal at element 0"):
        bad.verify()


def test_unknown_elements_are_refused():
    p = diamond()
    with pytest.raises(QuiverError, match="unknown element 'zz'"):
        minimal_resolution(p, "zz")
    with pytest.raises(QuiverError, match="unknown element 'zz'"):
        projective_dimension(p, "zz")


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["QQ", "F2"])
@pytest.mark.parametrize("poset", [pytest.param(chain(3), id="chain3"),
                                   pytest.param(diamond(), id="diamond")] + SEEDED_POSETS)
def test_step_one_is_the_upper_covers(poset, field):
    # the kernel of P_x onto S_x is generated at the upper covers of x, each
    # hit once by d1
    for xi, x in enumerate(poset.elements):
        res = minimal_resolution(poset, x, field)
        ups = tuple(sorted(j for i, j in poset.covers if i == xi))
        if not ups:
            assert res.covers == ((xi,),) and res.differentials == ()
            continue
        assert res.covers[:2] == ((xi,), ups)
        assert res.differentials[0] == Mat(1, len(ups), [[field.one] * len(ups)], field)


def test_resolution_verify_catches_an_unfinished_resolution():
    res = minimal_resolution(chain(2), "x0")
    assert res.length == 1
    cut = replace(res, covers=res.covers[:1], differentials=())
    with pytest.raises(InternalInvariantError, match="resolution not finished at 1"):
        cut.verify()


def test_resolution_verify_catches_a_map_that_does_not_commute():
    # relabel the generator of term 1 as x0: there is no map P_x0 -> P_x1,
    # since x1 is not below x0
    res = minimal_resolution(chain(3), "x1")
    assert res.covers == ((1,), (2,))
    with pytest.raises(InternalInvariantError, match=r"morphism d1 does not commute at \(0, 0\)"):
        replace(res, covers=((1,), (0,))).verify()


def test_resolution_verify_names_the_first_fault_row_by_row():
    # b < a1 < c1 and b < a2 < c2: a d2 from (c1, c2) to (a1, a2) with entries at
    # (0, 1) and (1, 0) commutes at neither; read row by row, (0, 1) comes first
    p = Poset.from_pairs(["b", "a1", "a2", "c1", "c2"],
                         [("b", "a1"), ("b", "a2"), ("a1", "c1"), ("a2", "c2")])
    res = minimal_resolution(p, "b")
    assert res.covers == ((0,), (1, 2))
    tampered = replace(res, covers=res.covers + ((3, 4),),
                       differentials=res.differentials + (Mat(2, 2, [[0, 1], [1, 0]]),))
    with pytest.raises(InternalInvariantError, match=r"morphism d2 does not commute at \(0, 1\)"):
        tampered.verify()


def test_resolution_verify_names_the_least_top_of_a_nonzero_composite():
    # every a below every c: d1 after d2 is nonzero on both columns of the
    # tampered d2, whose tops are c2 then c1, and the lesser top, c1 = 3, is named
    p = Poset.from_pairs(["b", "a1", "a2", "c1", "c2"],
                         [("b", "a1"), ("b", "a2")] + [(a, c) for a in ("a1", "a2")
                                                       for c in ("c1", "c2")])
    res = minimal_resolution(p, "b")
    assert res.covers == ((0,), (1, 2), (3, 4))
    tampered = replace(res, covers=res.covers[:2] + ((4, 3),),
                       differentials=res.differentials[:1] + (Mat(2, 2, [[1, 1], [0, 0]]),))
    with pytest.raises(InternalInvariantError, match="d1 after d2 is nonzero at 3"):
        tampered.verify()


def test_verify_is_not_confined_to_the_up_set_of_the_simple():
    # a top at x0, outside the up-set of x1, with a zero column in d1: the
    # term is nonzero at x0, where nothing maps onto it
    res = minimal_resolution(chain(3), "x1")
    assert res.covers == ((1,), (2,))
    tampered = replace(res, covers=((1,), (2, 0)),
                       differentials=(res.differentials[0].hstack(Mat(1, 1)),))
    with pytest.raises(InternalInvariantError, match="resolution not finished at 0"):
        tampered.verify()


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["QQ", "F2"])
@pytest.mark.parametrize("poset", [pytest.param(chain(3), id="chain3"),
                                   pytest.param(diamond(), id="diamond")] + SEEDED_POSETS)
def test_each_resolution_is_the_resolution_on_its_up_set(poset, field):
    # P_x lives on the up-set of x, so the resolution of S_x is that of the
    # bottom of the sub-poset on the up-set, read back through its indices
    els, rows = poset.elements, poset.rows
    for xi, x in enumerate(els):
        up = poset.up_sets[xi]
        sub = Poset([els[y] for y in up], [[bool(rows[a] >> b & 1) for b in up] for a in up])
        res, local = minimal_resolution(poset, x, field), minimal_resolution(sub, x, field)
        assert res.covers == tuple(tuple(up[t] for t in tops) for tops in local.covers)
        assert res.differentials == local.differentials


def test_resolution_verify_catches_differentials_that_do_not_fit():
    res = minimal_resolution(diamond(), "a")
    for differentials in (res.differentials[:1], (res.differentials[0], Mat(2, 2))):
        with pytest.raises(InternalInvariantError, match="differentials do not fit the terms"):
            replace(res, differentials=differentials).verify()


def test_resolution_past_the_chain_bound_is_caught(monkeypatch):
    p = diamond()
    monkeypatch.setitem(p.__dict__, "_chain", 2)  # the diamond's longest chain has 3
    with pytest.raises(InternalInvariantError, match="'a' exceeded the chain bound 2"):
        minimal_resolution(p, "a")


@pytest.mark.parametrize("seed", range(40))
def test_global_dimension_below_chain_length(seed):
    from commalg.homology import projective_dimensions

    # gldim <= (elements in the longest chain) - 1, tight on the diamond
    assert global_dimension(diamond()) == diamond().longest_chain() - 1 == 2
    rng = random.Random(1000 + seed)
    p = random_poset(rng.randint(1, 9), rng)
    dims = projective_dimensions(p)
    assert len(dims) == len(p)
    assert global_dimension(p) == max(dims) <= p.longest_chain() - 1


def test_chain_bound_check_is_tight(monkeypatch):
    import commalg.homology as homology

    p = diamond()
    monkeypatch.setattr(homology, "projective_dimension",
                        lambda poset, x, field: 3 * (x == "a"))
    with pytest.raises(InternalInvariantError, match="exceeds the chain bound 2"):
        global_dimension(p)


def test_projective_cover_with_multiplicity():
    # x0 carries a two-dimensional top; both basis vectors map onto x1
    p = chain(2)
    rep = PosetRepresentation(p, (2, 1), {(0, 1): Mat(1, 2, [[1, 1]])})
    cover = projective_cover(rep)
    assert cover.multiset == (("x0", 2),)
    assert cover.module.dims == (2, 2)
    assert cover.module.maps[(0, 1)] == Mat.identity(2)
    assert [b.rows for b in cover.surjection.blocks] == [[[1, 0], [0, 1]], [[1, 1]]]
    kernel, _ = cover.surjection.kernel()
    assert kernel.dims == (0, 1)


@pytest.mark.parametrize("seed", range(40))
def test_cover_multiplicities_are_top_dimensions(seed):
    # the multiplicity of P_x in each step is dim(top at x) of the module it covers
    rng = random.Random(2000 + seed)
    p = random_poset(rng.randint(1, 9), rng)
    for x in p.elements:
        res, steps = minimal_resolution(p, x), representation_resolution(p, x)
        assert len(steps) == len(res.multisets)
        for multiset, (covered, _, _) in zip(res.multisets, steps):
            tops = [
                (p.elements[y], d - covered.radical_generators(y).rank())
                for y, d in enumerate(covered.dims)
            ]
            assert multiset == tuple((y, n) for y, n in tops if n)


@pytest.mark.parametrize("field, gldim", [(QQ, 3), (PrimeField(2), 4), (PrimeField(3), 3)])
def test_rp2_global_dimension_depends_on_the_field(field, gldim):
    # Ext^k(S_bot, S_top) is the reduced H_{k-2} of RP^2: H_2(RP^2; F_2) = F_2
    # gives Ext^4 over F_2, and it vanishes over QQ and F_3
    p = rp2_face_poset()
    assert global_dimension(p, field) == gldim
    res = minimal_resolution(p, "bot", field)
    res.verify()
    assert res.length == gldim
    if gldim == 4:
        assert res.multisets[-1] == (("top", 1),)  # the one Ext^4, into S_top
    assert {phi.field for phi in res.differentials} == {field}


def test_representations_carry_their_field():
    f2 = PrimeField(2)
    p = diamond()
    assert projective(p, "a", f2).composite(0, 3).rows == [[f2.one]]
    assert {m.field for m in simple(p, "b", f2).maps.values()} == {f2}
    cover = projective_cover(simple(p, "a", f2))
    assert cover.module.field == f2
    assert cover.surjection.kernel()[0].field == f2


def test_mobius_function():
    assert chain(3).mobius == ((1, -1, 0), (0, 1, -1), (0, 0, 1))
    assert diamond().mobius[0] == (1, -1, -1, 1)
    p = rp2_face_poset()
    mu = p.mobius[p.position("bot")]
    # reduced Euler characteristic of RP^2, and of each face's boundary sphere
    assert mu[p.position("top")] == 0
    assert {mu[p.position(e)] for e in p.elements if e[0] == "p"} == {-1}
    assert {mu[p.position(e)] for e in p.elements if e[0] == "e"} == {1}
    assert {mu[p.position(e)] for e in p.elements if e[0] == "t" and e != "top"} == {-1}


@pytest.mark.parametrize("poset", [pytest.param(chain(3), id="chain3"),
                                   pytest.param(diamond(), id="diamond")] + SEEDED_POSETS)
def test_mobius_inverts_zeta(poset):
    # sum over x <= z <= y of mu(x, z) is 1 when x = y, else 0
    m, rows = len(poset), poset.rows
    for x in range(m):
        for y in range(m):
            total = sum(poset.mobius[x][z] for z in range(m) if rows[z] >> y & 1)
            assert total == (x == y)
            assert poset.mobius[x][y] == 0 or rows[x] >> y & 1


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)])
@pytest.mark.parametrize("poset", [chain(3), diamond(), rp2_face_poset()],
                         ids=["chain3", "diamond", "rp2"])
def test_alternating_tops_of_each_resolution_are_mobius(poset, field):
    for x in poset.elements:
        res = minimal_resolution(poset, x, field)
        euler = [sum((-1) ** k * tops.count(y) for k, tops in enumerate(res.covers))
                 for y in range(len(poset))]
        assert tuple(euler) == poset.mobius[poset.position(x)]


def test_a_resolution_that_disagrees_with_mobius_is_caught(monkeypatch):
    import commalg.homology as homology

    # drop the last term of the resolution of S_a: with verify switched off,
    # only the Mobius check is left to notice
    real = homology.minimal_resolution

    def truncated(poset, x, field):
        res = real(poset, x, field)
        if x != "a":
            return res
        return replace(res, covers=res.covers[:-1], differentials=res.differentials[:-1])

    monkeypatch.setattr(homology, "minimal_resolution", truncated)
    monkeypatch.setattr(homology.Resolution, "verify", lambda self: None)
    with pytest.raises(InternalInvariantError, match="'a' disagrees with the Mobius function"):
        global_dimension(diamond())


def tampered_tops(res):
    """Each way to add one top at any element, in any term or a new one, or to
    remove one: (that element, the changed tops of every term)."""
    for k in range(len(res.covers) + 1):
        tops = res.covers[k] if k < len(res.covers) else ()
        for y in range(len(res.poset)):
            yield y, res.covers[:k] + (tops + (y,),) + res.covers[k + 1:]
        for i, y in enumerate(tops):
            yield y, res.covers[:k] + (tops[:i] + tops[i + 1:],) + res.covers[k + 1:]


@pytest.mark.parametrize("poset", [chain(3), diamond(), rp2_face_poset()],
                         ids=["chain3", "diamond", "rp2"])
def test_the_zeta_sum_catches_one_top_added_or_removed(monkeypatch, poset):
    import commalg.homology as homology

    # with verify switched off, only the Mobius check is left to notice
    monkeypatch.setattr(homology.Resolution, "verify", lambda self: None)
    rows, tampered = poset.rows, set()
    for x in poset.elements:
        res = minimal_resolution(poset, x)
        monkeypatch.setattr(homology, "minimal_resolution", lambda *args: res)
        assert projective_dimension(poset, x) == res.length
        for y, covers in tampered_tops(res):
            tampered.add((res.simple, y))
            monkeypatch.setattr(homology, "minimal_resolution",
                                lambda *args, covers=covers: replace(res, covers=covers))
            with pytest.raises(InternalInvariantError, match="disagrees with the Mobius function"):
                projective_dimension(poset, x)
    # every pair was reached, those of incomparable elements included
    assert tampered == set(itertools.product(range(len(poset)), repeat=2))
    assert any(not (rows[x] >> y & 1 or rows[y] >> x & 1) for x, y in tampered) == (
        poset != chain(3))


@pytest.mark.parametrize("build", [pytest.param(rp2_face_poset, id="rp2")] + [
    pytest.param(lambda m=m, s=s: random_poset(m, 1000 * m + s, 0.3), id=f"random_poset_{m}_{s}")
    for m in (10, 14, 18) for s in range(2)
])
def test_global_dimension_builds_no_mobius_matrix(build):
    # the seeded posets, built afresh: other tests read the shared ones' matrix
    poset = build()
    global_dimension(poset)
    assert "mobius" not in poset.__dict__


def _dense_rref(rows, ncols, field):
    """Reduced row echelon form of a copy of ``rows`` and its pivot columns: the
    dense row reduction ``Mat`` used before it reduced sparse columns."""
    rows, pivots, r = [list(row) for row in rows], [], 0
    for c in range(ncols if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if rows[r][c] != field.one:
            inv = field.div(field.one, rows[r][c])
            rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_minimal_resolution(poset, x, field=QQ):
    """``minimal_resolution`` as it stood with dense blocks: per element and step, a
    matrix rebuilt from the kernels' columns for the generators' rref, and the block
    of Φ on the tops at or below the element for the next kernel's null space."""
    xi = poset.position(x)
    tops, covers, differentials, at = (xi,), [(xi,)], [], _below(poset, (xi,))
    kernels = {y: [{0: field.one}] if y != xi else [] for y in poset.up_sets[xi]}
    for _ in range(poset.longest_chain()):
        n, tops, columns = len(tops), [], []
        for y, kernel in kernels.items():
            rad = [col for z in poset.lower_covers[y] for col in kernels.get(z, ())]
            if rad and kernel:
                both = rad + kernel
                _, pivots = _dense_rref([[col.get(i, field.zero) for col in both]
                                         for i in at[y]], len(both), field)
                kernel = [both[c] for c in pivots if c >= len(rad)]
            tops += [y] * len(kernel)
            columns += kernel
        if not tops:
            return tuple(covers), tuple(differentials)
        phi = Mat._of_columns(columns, n, field)
        covers.append(tuple(tops))
        differentials.append(phi)
        at, at_prev = _below(poset, tops), at
        kernels = {}
        for y in poset.up_sets[xi]:
            block = _block(phi, at_prev.get(y, []), at.get(y, []))
            rows, pivots = _dense_rref(block.rows, block.ncols, field)
            free = [c for c in range(block.ncols) if c not in pivots]
            # the null vector of free column c: 1 at c, minus its rref entries at the pivots
            kernels[y] = [dict([(at[y][c], field.one)] + [(at[y][p], -rows[r][c])
                                                          for r, p in enumerate(pivots)])
                          for c in free]
    raise AssertionError("the dense reference ran past the chain bound")


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["QQ", "F2", "F3"])
@pytest.mark.parametrize("poset", SEEDED_POSETS + [
    pytest.param(random_poset(m, 1000 * m + s, 0.3), id=f"random_poset_{m}_{s}")
    for m, s in zip(range(1, 26), itertools.cycle(range(8)))])
def test_sparse_resolutions_match_the_dense_construction(poset, field):
    # the same covers, and every differential entry of the same type and value;
    # over QQ the pickles too (over F_p they also record which entries share one
    # object, which the dense blocks and the sparse columns do not share alike)
    for x in poset.elements:
        res, (covers, differentials) = minimal_resolution(poset, x, field), \
            dense_minimal_resolution(poset, x, field)
        assert res.covers == covers
        assert [[[(type(a), a) for a in row] for row in phi.rows] for phi in res.differentials] \
            == [[[(type(a), a) for a in row] for row in phi.rows] for phi in differentials]
        if field is QQ:
            assert pickle.dumps((res.covers, res.differentials)) == pickle.dumps(
                (covers, differentials))


def test_resolutions_of_the_seeded_corpus_keep_their_digest():
    # every resolution of random_poset(m, 1000 m + s, 0.3), m = 1..25 and s = 0..7, over
    # QQ, F_2 and F_3: its covers and each differential's entries as dense rows, with
    # their types, hashed in a fixed order; a storage change must not move one entry
    digest = hashlib.sha256()
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for m in range(1, 26):
            for s in range(8):
                poset = random_poset(m, 1000 * m + s, 0.3)
                for x in poset.elements:
                    res = minimal_resolution(poset, x, field)
                    digest.update(repr((m, s, x, res.covers, [
                        [[(type(a).__name__, str(a)) for a in row] for row in d.rows]
                        for d in res.differentials])).encode())
    assert digest.hexdigest() == (
        "b3a5a647780e1f2aad682b33c160e917d194ee756783f6b4c117e075fe6908e3")
