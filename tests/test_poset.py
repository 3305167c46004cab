import itertools
import random

import pytest

from commalg import (
    QQ,
    CommutingAlgebra,
    InternalInvariantError,
    Poset,
    PrimeField,
    QuiverError,
    commuting_algebra,
    end_hom_dims,
    hasse,
    hasse_quiver,
    idempotence_check,
    incidence_algebra,
    skeleton,
    skeleton_iso_incidence,
)
from commalg import structure
from commalg.algebra import AlgebraElement
from commalg.quiver import Quiver
from commalg.randgen import random_poset, random_quiver, random_sparse_quiver
from commalg.structure import path_components


def diamond():
    return Poset.from_pairs("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def chain(k):
    els = [f"x{i}" for i in range(k)]
    return Poset.from_pairs(els, zip(els, els[1:]))


def antichain(k):
    return Poset.from_pairs([f"x{i}" for i in range(k)], [])


def test_poset_validation():
    with pytest.raises(QuiverError):
        Poset(("a", "a"), ((True, False), (False, True)))
    with pytest.raises(QuiverError):
        Poset(("a", "b"), ((True,),))
    with pytest.raises(QuiverError):
        Poset(("a",), ((False,),))
    with pytest.raises(QuiverError):
        Poset(("a", "b"), ((True, True), (True, True)))
    with pytest.raises(QuiverError):
        Poset(
            ("a", "b", "c"),
            ((True, True, False), (False, True, True), (False, False, True)),
        )


def test_from_pairs_closure():
    p = chain(3)
    assert p.le("x0", "x2")  # closed transitively
    assert not p.le("x2", "x0")
    with pytest.raises(QuiverError):
        Poset.from_pairs(["a"], [("a", "b")])
    with pytest.raises(QuiverError):
        p.le("zz", "x0")


def test_from_pairs_rejects_repeats_and_cycles():
    # closed and checked on rows, without the matrix constructor
    with pytest.raises(QuiverError, match="pairwise distinct"):
        Poset.from_pairs(["a", "b", "a"], [("a", "b")])
    with pytest.raises(QuiverError, match="antisymmetric: 'b' and 'c'"):
        Poset.from_pairs("abc", [("a", "b"), ("b", "c"), ("c", "b")])
    p = Poset.from_pairs("abc", [("a", "b"), ("b", "c")])
    assert p == Poset("abc", p.leq) and hash(p) == hash(Poset("abc", p.leq))
    assert p.leq == ((True, True, True), (False, True, True), (False, False, True))


def test_a_skeleton_checks_its_order_once_on_the_component_rows(monkeypatch):
    q = random_sparse_quiver(60, 120, random.Random(60))
    checked, check = [], structure._closed_order

    def counted_check(rows, *args, **kwargs):
        checked.append(len(rows))
        return check(rows, *args, **kwargs)

    monkeypatch.setattr(structure, "_closed_order", counted_check)
    skel = skeleton(q)
    assert len(skel.poset) < q.n
    assert checked == [len(skel.poset)]
    # the skeleton's poset is the condensation, and shares its cached sort
    alg = skel.algebra
    assert skel.poset is alg.condensation
    assert skel.poset.elements == tuple(comp[0] for comp in skel.partition.components)
    assert alg.component_order is alg.condensation.linear_extension()


def test_longest_chain():
    assert chain(1).longest_chain() == 1
    assert chain(4).longest_chain() == 4
    assert antichain(5).longest_chain() == 1
    assert diamond().longest_chain() == 3


def test_linear_extension():
    p = diamond()
    ext = p.linear_extension()
    assert sorted(ext) == [0, 1, 2, 3]
    pos = {e: i for i, e in enumerate(ext)}
    for i in range(4):
        for j in range(4):
            if p.leq[i][j] and i != j:
                assert pos[i] < pos[j]
    assert p.linear_extension() == ext  # deterministic


def test_pairs_row_major():
    p = chain(2)
    assert p.pairs() == [("x0", "x0"), ("x0", "x1"), ("x1", "x1")]


def test_hasse_diamond():
    d = hasse(diamond())
    assert set(d.cover_pairs()) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
    assert ("a", "d") not in d.cover_pairs()


def test_hasse_chain():
    d = hasse(chain(4))
    assert d.cover_pairs() == [("x0", "x1"), ("x1", "x2"), ("x2", "x3")]


@pytest.mark.parametrize("seed", range(40))
def test_hasse_closure_roundtrip(seed):
    p = random_poset(random.Random(seed).randint(1, 8), seed)
    again = Poset.from_pairs(p.elements, hasse(p).cover_pairs())
    assert again == p


def test_hasse_quiver():
    hq = hasse_quiver(diamond(), name="D")
    assert hq.vertices == ("a", "b", "c", "d")
    assert [a.name for a in hq.arrows] == ["c0", "c1", "c2", "c3"]
    assert {(a.source, a.target) for a in hq.arrows} == {
        ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
    }


def test_skeleton_two_block(two_block):
    skel = skeleton(two_block)
    assert skel.poset.elements == ("v1", "v5")
    assert skel.representatives == ("v1", "v5")
    assert skel.poset.le("v1", "v5")
    assert not skel.poset.le("v5", "v1")
    assert len(skel) == 2


def test_skeleton_three_block(three_block):
    skel = skeleton(three_block)
    assert skel.poset.elements == ("x1", "x5", "x6")
    assert skel.poset.longest_chain() == 3


def test_skeleton_single_component(cycle6):
    skel = skeleton(cycle6)
    assert skel.poset.elements == ("u1",)
    assert len(skel) == 1


def test_skeleton_custom_representatives(two_block):
    skel = skeleton(two_block, ["v3", "v6"])
    assert skel.representatives == ("v3", "v6")
    # naming never follows the choice
    assert skel.poset.elements == ("v1", "v5")
    with pytest.raises(QuiverError):
        skeleton(two_block, ["v5", "v1"])  # wrong components
    with pytest.raises(QuiverError):
        skeleton(two_block, ["v1"])  # wrong count


def test_representative_independence(two_block):
    part = path_components(two_block)
    reference = skeleton(two_block).poset
    for choice in itertools.product(*part.components):
        skel = skeleton(two_block, choice)
        assert skel.poset == reference
        iso = skeleton_iso_incidence(skel)
        assert iso.products_checked == iso.incidence.dimension + len(two_block.vertices)


def test_incidence_algebra_basis():
    p = diamond()
    inc = incidence_algebra(p)
    assert inc.dimension == len(p.pairs()) == 9
    # diagonal pairs present, row-major order
    assert inc.basis == (
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3), (2, 2), (2, 3), (3, 3),
    )


@pytest.mark.parametrize("seed", range(25))
def test_incidence_dim_matches_hasse_quiver_algebra(seed):
    p = random_poset(random.Random(seed).randint(1, 7), seed)
    inc = incidence_algebra(p)
    alg = commuting_algebra(hasse_quiver(p))
    assert inc.dimension == alg.total_dimension()


def test_skeleton_iso_fixtures(two_block, three_block, cycle6):
    for q in (two_block, three_block, cycle6):
        skel = skeleton(q)
        iso = skeleton_iso_incidence(skel)
        assert iso.incidence.dimension == len(skel.poset.pairs())
        assert iso.products_checked == iso.incidence.dimension + len(q.vertices)
        assert len(iso.assignment) == iso.incidence.dimension
        for (i, j), (v, w) in iso.assignment:
            assert v == skel.representatives[i] and w == skel.representatives[j]


def test_skeleton_iso_prime_field(two_block):
    iso = skeleton_iso_incidence(skeleton(two_block), field=PrimeField(5))
    assert iso.algebra.field.p == 5
    assert iso.products_checked == 3 + 6  # one per incidence unit, one per vertex


def _mutated_multiply(term):
    """``CommutingAlgebra.multiply`` passing each product v of entries (i, k)
    and (k2, j) to ``term(algebra, i, k, k2, j, v)``, which returns the
    (key, value) to accumulate, or None to drop it."""

    def multiply(self, x, y):
        zero, acc = self.field.zero, {}
        for (i, k), xv in x.entries.items():
            for (k2, j), yv in y.entries.items():
                out = term(self, i, k, k2, j, xv * yv)
                if out is not None:
                    acc[out[0]] = acc.get(out[0], zero) + out[1]
        for i, j in acc:
            if not self.pattern.rows[i] >> j & 1:
                raise InternalInvariantError("product outside the pattern")
        return AlgebraElement(self, {key: v for key, v in acc.items() if v != zero})

    return multiply


def _is_representative(algebra, i):
    return algebra.order[i] in {c[0] for c in algebra.partition.components}


MUTATIONS = {
    "no middle test": lambda a, i, k, k2, j, v: ((i, j), v),
    "double every term": lambda a, i, k, k2, j, v: ((i, j), v + v) if k == k2 else None,
    "double the diagonal": lambda a, i, k, k2, j, v: (
        ((i, j), v + v if i == j else v) if k == k2 else None),
    "drop k == j": lambda a, i, k, k2, j, v: ((i, j), v) if k == k2 != j else None,
    "change the corner": lambda a, i, k, k2, j, v: (
        ((i, j), v + v if (i, j) == (0, len(a.order) - 1) else v) if k == k2 else None),
    "triple k == 0": lambda a, i, k, k2, j, v: (
        ((i, j), v + v + v if k == 0 else v) if k == k2 else None),
    "key (i, k)": lambda a, i, k, k2, j, v: ((i, k), v) if k == k2 else None,
    # the products the incidence units never make: a left vertex that is not
    # its component's representative, which only fullness reaches
    "drop a non-representative left": lambda a, i, k, k2, j, v: (
        ((i, j), v) if k == k2 and _is_representative(a, i) else None),
}


def _table_catches(skel, field):
    """Whether the D^2 table of products of representative units sees a fault."""
    algebra, reps = skel.algebra.over(field), skel.representatives
    units = {(i, j): algebra.basis_element(reps[i], reps[j])
             for i, row in enumerate(skel.poset.rows) for j in structure._bits(row)}
    try:
        for (a, b), (c, d) in itertools.product(units, repeat=2):
            expected = units[a, d] if b == c else algebra.zero()
            if algebra.multiply(units[a, b], units[c, d]) != expected:
                return True
    except InternalInvariantError:
        return True
    return False


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["QQ", "F2"])
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_iso_check_catches_what_the_product_table_catches(monkeypatch, name, field):
    skeletons = []
    for seed in range(30):
        rng = random.Random(seed)
        skeletons.append(skeleton(random_quiver(rng.randint(1, 8), rng.randint(0, 14), rng)))
    monkeypatch.setattr(CommutingAlgebra, "multiply", _mutated_multiply(MUTATIONS[name]))
    table, check = set(), set()
    for seed, skel in enumerate(skeletons):
        if _table_catches(skel, field):
            table.add(seed)
        try:
            skeleton_iso_incidence(skel, field)
        except InternalInvariantError:
            check.add(seed)
    assert table <= check
    if name == "drop a non-representative left":
        assert not table
    if name != "triple k == 0" or field is QQ:  # 3 = 1 in F2
        assert check


def test_end_hom_dims(two_block):
    skel = skeleton(two_block)
    assert end_hom_dims(skel, 0, 0) == 1
    assert end_hom_dims(skel, 1, 1) == 1
    # v1 reaches v5, so maps go from the projective at v5's component
    # into the one at v1's: the (1, 0) slot is the nonzero one
    assert end_hom_dims(skel, 1, 0) == 1
    assert end_hom_dims(skel, 0, 1) == 0
    with pytest.raises(QuiverError):
        end_hom_dims(skel, 0, 2)
    with pytest.raises(QuiverError):
        end_hom_dims(skel, -1, 0)


@pytest.mark.parametrize("seed", range(30))
def test_end_hom_dims_antisymmetric(seed):
    rng = random.Random(seed)
    q = random_quiver(rng.randint(1, 8), rng.randint(0, 14), rng)
    skel = skeleton(q)
    m = len(skel)
    for i in range(m):
        assert end_hom_dims(skel, i, i) == 1
        for j in range(m):
            if i != j:
                assert not (
                    end_hom_dims(skel, i, j) and end_hom_dims(skel, j, i)
                )


def test_idempotence_fixtures():
    assert idempotence_check(chain(4))
    assert idempotence_check(diamond())
    assert idempotence_check(antichain(3))
    assert idempotence_check(chain(1))


@pytest.mark.parametrize("poset", [chain(3), diamond()], ids=["chain", "diamond"])
def test_idempotence_fails_on_a_hasse_quiver_missing_a_cover(monkeypatch, poset):
    import commalg.poset

    build = commalg.poset.hasse_quiver

    def dropped(p, *args):
        q = build(p, *args)
        return Quiver(q.vertices, q.arrows[:-1], name=q.name)

    monkeypatch.setattr(commalg.poset, "hasse_quiver", dropped)
    assert not idempotence_check(poset)


@pytest.mark.parametrize("seed", range(40))
def test_idempotence_random(seed):
    p = random_poset(random.Random(seed).randint(1, 7), seed)
    assert idempotence_check(p)


@pytest.mark.parametrize("seed", range(25))
def test_skeleton_random_invariants(seed):
    rng = random.Random(seed)
    q = random_quiver(rng.randint(1, 8), rng.randint(0, 14), rng)
    skel = skeleton(q)
    # poset elements are the canonical component names
    assert skel.poset.elements == tuple(c[0] for c in skel.partition.components)
    iso = skeleton_iso_incidence(skel)
    assert iso.products_checked == iso.incidence.dimension + len(q.vertices)
    # skeleton of a skeleton's Hasse quiver gives the same poset
    assert idempotence_check(skel.poset)
