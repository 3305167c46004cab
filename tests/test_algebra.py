import itertools
import random
from fractions import Fraction

import pytest

from commalg import (
    CoefficientFunction,
    InternalInvariantError,
    QQ,
    PrimeField,
    QuiverError,
    commuting_algebra,
    enumerate_paths,
    quasi_commuting_algebra,
    quasi_structure_constant,
)
from commalg import algebra as algebra_module, structure
from commalg.quiver import Arrow, Quiver, compose
from commalg.randgen import random_quiver, random_sparse_quiver, random_weights


def test_two_block_dimensions(two_block):
    alg = commuting_algebra(two_block)
    assert alg.total_dimension() == 28
    assert alg.block_sizes == (4, 2)
    assert alg.order == ("v1", "v2", "v3", "v4", "v5", "v6")
    assert alg.pattern.bitstrings() == (
        "111111", "111111", "111111", "111111", "000011", "000011",
    )
    assert alg.block_pattern == ((True, True), (False, True))


def test_three_block_dimensions(three_block):
    alg = commuting_algebra(three_block)
    assert alg.total_dimension() == 27
    assert alg.block_sizes == (4, 1, 1)
    assert alg.pattern.bitstrings()[-2:] == ("000011", "000001")


def test_cycle_dimensions(cycle6, cycle6_chord):
    for q in (cycle6, cycle6_chord):
        alg = commuting_algebra(q)
        assert alg.total_dimension() == 36
        assert alg.block_sizes == (6,)
        assert all(row == "111111" for row in alg.pattern.bitstrings())


def test_kronecker_dimensions(kronecker):
    for n in range(1, 7):
        alg = commuting_algebra(kronecker(n))
        assert alg.total_dimension() == 3
        assert alg.block_sizes == (1, 1)
        assert alg.block_pattern == ((True, True), (False, True))


@pytest.mark.parametrize("seed", range(8))
def test_block_pattern_is_a_view_built_when_first_read(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    alg = commuting_algebra(random_sparse_quiver(n, rng.randint(0, min(45, n * n)), rng))
    assert "block_pattern" not in vars(alg)
    # the eager definition a build used to run
    order, rows = alg.component_order, alg.condensation.rows
    eager = tuple(tuple(bool(rows[ci] >> cj & 1) for cj in order) for ci in order)
    assert alg.block_pattern == eager
    # and it agrees with the vertex pattern at each block's first vertex
    firsts = [alg.order[k] for k in itertools.accumulate((0,) + alg.block_sizes[:-1])]
    assert alg.block_pattern == tuple(
        tuple(bool(alg.hom_dimension(v, w)) for w in firsts) for v in firsts
    )


def test_hom_dimension_values(two_block):
    alg = commuting_algebra(two_block)
    assert alg.hom_dimension("v1", "v6") == 1
    assert alg.hom_dimension("v5", "v1") == 0
    assert alg.hom_dimension("v3", "v3") == 1
    with pytest.raises(QuiverError):
        alg.hom_dimension("zz", "v1")


def test_element_support_validation(two_block):
    alg = commuting_algebra(two_block)
    x = alg.element({("v1", "v6"): 2, ("v2", "v2"): "1/3"})
    assert x.support() == {("v1", "v6"), ("v2", "v2")}
    assert x.coefficient("v1", "v6") == 2
    assert x.coefficient("v1", "v1") == 0
    with pytest.raises(QuiverError):
        alg.element({("v5", "v1"): 1})
    assert alg.element({("v1", "v1"): 0}).is_zero()


def test_basis_element_errors(two_block):
    alg = commuting_algebra(two_block)
    with pytest.raises(QuiverError):
        alg.basis_element("v5", "v1")
    with pytest.raises(QuiverError):
        alg.basis_element("zz", "v1")
    e = alg.basis_element("v1", "v5")
    assert e.coefficient("v1", "v5") == 1


def test_matrix_unit_products(two_block):
    alg = commuting_algebra(two_block)
    e12 = alg.basis_element("v1", "v2")
    e25 = alg.basis_element("v2", "v5")
    e15 = alg.basis_element("v1", "v5")
    assert e12 * e25 == e15
    assert (e25 * e12).is_zero()  # endpoints do not chain
    e55 = alg.basis_element("v5", "v5")
    assert e15 * e55 == e15
    assert (e12 * e55).is_zero()


def test_identity_and_zero(two_block):
    alg = commuting_algebra(two_block)
    one = alg.one()
    x = alg.element({("v1", "v3"): 5, ("v5", "v6"): -1})
    assert one * x == x and x * one == x
    assert (alg.zero() * x).is_zero()
    assert x + alg.zero() == x
    y = alg.element({("v1", "v3"): -5, ("v5", "v6"): 1})
    assert (x + y).is_zero()


def test_elements_do_not_cross_algebras(two_block, three_block):
    a1 = commuting_algebra(two_block)
    a2 = commuting_algebra(three_block)
    with pytest.raises(QuiverError):
        a1.multiply(a1.one(), a2.one())
    with pytest.raises(QuiverError):
        a1.one() + a2.one()


def _all_units(alg):
    return [
        alg.basis_element(v, w)
        for v in alg.order
        for w in alg.order
        if alg.hom_dimension(v, w)
    ]


@pytest.mark.parametrize("fixture", ["two_block", "three_block", "triangle_quiver"])
def test_exhaustive_unit_algebra(fixture, request):
    alg = commuting_algebra(request.getfixturevalue(fixture))
    units = _all_units(alg)
    pairs = {}
    order = alg.order
    for x in units:
        ((i, k),) = x.entries.keys()
        for y in units:
            ((k2, j),) = y.entries.keys()
            prod = x * y
            if k == k2:
                assert prod == alg.basis_element(order[i], order[j])
            else:
                assert prod.is_zero()
            pairs[(i, k, k2, j)] = prod
    # associativity over every unit triple
    for x, y, z in itertools.product(units, repeat=3):
        assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("seed", range(40))
def test_dimension_bound_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    q = random_quiver(n, rng.randint(0, 16), rng)
    alg = commuting_algebra(q)
    assert alg.total_dimension() <= n * n
    single = len(alg.partition) == 1
    assert (alg.total_dimension() == n * n) == single
    assert sum(alg.block_sizes) == n
    # every Hom space is 0- or 1-dimensional and matches path existence
    for v in q.vertices:
        for w in q.vertices:
            d = alg.hom_dimension(v, w)
            assert d in (0, 1)
            assert bool(d) == bool(enumerate_paths(q, v, w, n - 1, cap=500_000))


def test_prime_field_algebra(two_block):
    alg = commuting_algebra(two_block, field=PrimeField(5))
    assert alg.total_dimension() == 28
    x = alg.element({("v1", "v2"): 3})
    y = alg.element({("v2", "v5"): 4})
    assert (x * y).coefficient("v1", "v5") == PrimeField(5).element(2)


def test_coefficient_function():
    f = CoefficientFunction({"a": Fraction(2), "b": "1/3"})
    assert f.value(Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")]).path(
        "v", ["a", "b", "a"])) == Fraction(4, 3)
    assert f.value(Quiver(["v"]).vertex_path("v")) == 1
    assert not f.is_trivial
    assert CoefficientFunction.trivial().is_trivial
    with pytest.raises(QuiverError):
        CoefficientFunction({"a": 0})


def test_coefficient_from_quiver(two_block):
    q = Quiver(two_block.vertices, two_block.arrows, {"a1": "2/3"})
    f = CoefficientFunction.from_quiver(q)
    assert f.value(q.path("v1", ["a1"])) == Fraction(2, 3)


def test_coefficient_value_is_product_of_weights():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        q = random_quiver(rng.randint(1, 5), rng.randint(1, 8), rng)
        full = random_weights(q, rng)
        partial = CoefficientFunction({
            name: weight for name, weight in full.weights.items()
            if rng.random() < 0.5
        })
        start = at = rng.choice(q.vertices)
        names = []
        for _ in range(rng.randint(0, 6)):
            out = q.arrows_from[at]
            if not out:
                break
            arrow = rng.choice(out)
            names.append(arrow.name)
            at = arrow.target
        path = q.path(start, names)
        for f in (full, partial, CoefficientFunction.trivial()):
            expected = Fraction(1)
            for name in path.arrows:
                expected *= f.weights.get(name, 1)
            assert f.value(path) == expected
            if all(type(f.weights.get(name, 1)) is int for name in path.arrows):
                assert type(f.value(path)) is int
        checked += 1


@pytest.mark.parametrize("seed", range(30))
def test_quasi_structure_constant_is_one(seed):
    rng = random.Random(seed)
    q = random_quiver(rng.randint(2, 7), rng.randint(2, 12), rng)
    f = random_weights(q, rng)
    # sample composable path pairs and check the constant collapses
    checked = 0
    for v in q.vertices:
        for p in enumerate_paths(q, v, rng.choice(q.vertices), 3, cap=100_000)[:5]:
            for w in q.vertices:
                for r in enumerate_paths(q, p.end, w, 3, cap=100_000)[:5]:
                    assert quasi_structure_constant(f, p, r) == 1
                    checked += 1
    if checked:
        assert checked > 0


def test_quasi_structure_constant_composition_guard(triangle_quiver):
    q = triangle_quiver
    f = CoefficientFunction.trivial()
    with pytest.raises(QuiverError):
        quasi_structure_constant(f, q.path("v1", ["a"]), q.path("v1", ["a"]))


def test_quasi_commuting_kronecker(kronecker):
    q = kronecker(3)
    f = CoefficientFunction({"a1": Fraction(5, 2), "a2": 7, "a3": -1})
    quasi = quasi_commuting_algebra(q, f)
    assert quasi.algebra.total_dimension() == 3
    e = quasi.entry("v", "w")
    assert e.path == q.path("v", ["a1"])  # first arrow in declaration order
    assert e.scale == Fraction(5, 2)
    assert quasi.entry("v", "v").path.is_trivial
    assert quasi.entry("v", "v").scale == 1
    with pytest.raises(QuiverError):
        quasi.entry("w", "v")


def test_quasi_commuting_rejects_weights_on_unknown_arrows():
    q = Quiver(["v", "w"], [("a", "v", "w")])
    with pytest.raises(QuiverError, match="weight given for unknown arrow 'zz'"):
        quasi_commuting_algebra(q, CoefficientFunction({"zz": 5}))


@pytest.mark.parametrize("seed", range(20))
def test_quasi_commuting_random(seed):
    rng = random.Random(seed)
    q = random_quiver(rng.randint(1, 7), rng.randint(0, 12), rng)
    f = random_weights(q, rng)
    quasi = quasi_commuting_algebra(q, f)
    plain = commuting_algebra(q)
    # the twist never moves the dimensions
    assert quasi.algebra.total_dimension() == plain.total_dimension()
    assert quasi.algebra.block_sizes == plain.block_sizes
    # one normalization entry per supported pair; the scale is f on the path
    supported = sum(
        plain.hom_dimension(v, w) for v in q.vertices for w in q.vertices
    )
    assert len(quasi.normalization) == supported
    for ent in quasi.normalization:
        assert ent.path.start == ent.source and ent.path.end == ent.target
        assert ent.scale == f.value(ent.path)
        assert ent.scale != 0
        # the recorded path is a shortest one
        dist = next(
            len(p) for p in enumerate_paths(q, ent.source, ent.target,
                                            q.n, cap=500_000)
        )
        assert len(ent.path) == dist


@pytest.mark.parametrize("seed", range(40))
def test_products_match_the_dense_matrix_product(seed):
    # the sparse product, y's entries grouped by row, against n x n matrices
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    field = QQ if seed % 2 else PrimeField(2)
    alg = commuting_algebra(random_sparse_quiver(n, rng.randint(0, 2 * n), rng), field)
    support = [(v, w) for v in alg.order for w in alg.order if alg.hom_dimension(v, w)]

    def draw():
        picked = rng.sample(support, rng.randint(0, len(support)))
        return {pair: rng.randint(-3, 3) for pair in picked}

    def dense(entries):
        matrix = [[field.zero] * n for _ in range(n)]
        for (v, w), value in entries.items():
            matrix[alg.position(v)][alg.position(w)] = field.element(value)
        return matrix

    for _ in range(5):
        x, y = draw(), draw()
        a, b = dense(x), dense(y)
        product = alg.element(x) * alg.element(y)
        for i, v in enumerate(alg.order):
            for j, w in enumerate(alg.order):
                expected = sum((a[i][k] * b[k][j] for k in range(n)), field.zero)
                assert product.coefficient(v, w) == expected


def test_multiply_checks_ownership(two_block):
    alg = commuting_algebra(two_block)
    again = commuting_algebra(two_block)
    with pytest.raises(QuiverError):
        alg.one() * again.one()


@pytest.mark.parametrize("arrows, dropped", [
    ((("x", "a", "b"), ("y", "b", "c")), ("a", "c")),  # transitive bit of a chain
    ((("x", "a", "b"), ("y", "b", "a")), ("b", "a")),  # one direction of a 2-cycle
    ((("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")), ("b", "a")),  # of a 3-cycle
])
def test_a_wrong_closure_fails_the_build(monkeypatch, arrows, dropped):
    q = Quiver("abc", [Arrow(*arrow) for arrow in arrows])
    closure = structure._closure
    i, j = (q.vertex_index[v] for v in dropped)

    def wrong(n, pairs):
        rows = list(closure(n, pairs))
        rows[i] &= ~(1 << j)
        return tuple(rows)

    commuting_algebra(q)
    monkeypatch.setattr(structure, "_closure", wrong)
    with pytest.raises(InternalInvariantError):
        commuting_algebra(q)


def test_a_build_closes_once_and_checks_only_component_rows(monkeypatch):
    q = random_sparse_quiver(60, 120, random.Random(60))
    closures, checked = [], []
    closure, check = structure._closure, structure._closed_order

    def counted_closure(succ, comps):
        closures.append(len(succ))
        return closure(succ, comps)

    def counted_check(rows, *args, **kwargs):
        checked.append(len(rows))
        return check(rows, *args, **kwargs)

    monkeypatch.setattr(structure, "_closure", counted_closure)
    monkeypatch.setattr(structure, "_closed_order", counted_check)
    alg = commuting_algebra(q)
    assert len(alg.block_sizes) < q.n
    assert closures == [q.n]
    assert checked == [len(alg.block_sizes)]


CHAIN = (("x", "a", "b"), ("y", "b", "c"))


@pytest.mark.parametrize("arrows, added, message", [
    pytest.param((), (("a", "b"), ("b", "a")),
                 "strongly connected components are not the classes of equal rows",
                 id="merged"),
    pytest.param(CHAIN[:1], (("a", "c"),),
                 "condensation row 0 holds more than its edges reach", id="too-big"),
])
def test_each_closure_with_extra_pairs_raises_its_message(monkeypatch, arrows, added, message):
    # rows that are closed and hold every arrow, but relate more than paths do
    q = Quiver("abc", [Arrow(*arrow) for arrow in arrows])
    closure = structure._closure

    def wrong(n, pairs):
        rows = list(closure(n, pairs))
        for i, j in ((q.vertex_index[v], q.vertex_index[w]) for v, w in added):
            rows[i] |= rows[j]
        return tuple(rows)

    commuting_algebra(q)
    monkeypatch.setattr(structure, "_closure", wrong)
    with pytest.raises(InternalInvariantError, match=message):
        commuting_algebra(q)


@pytest.mark.parametrize("arrows, dropped, message", [
    pytest.param(CHAIN, ("c", "c"), "condensation must be reflexive", id="reflexive"),
    pytest.param(CHAIN, ("a", "c"), "condensation must be transitive", id="transitive"),
    pytest.param((("x", "a", "b"), ("y", "b", "a"), ("z", "b", "c")), ("a", "c"),
                 "condensation must be antisymmetric: 0 and 1", id="antisymmetric"),
    pytest.param((("x", "a", "b"), ("y", "b", "a")), ("b", "a"),
                 "pattern misses arrow 'y'", id="arrow"),
    pytest.param((("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")), ("b", "a"),
                 "reachability between components 1 and 0 depends on the representative",
                 id="representative"),
])
def test_each_wrong_closure_raises_its_message(monkeypatch, arrows, dropped, message):
    q = Quiver("abc", [Arrow(*arrow) for arrow in arrows])
    closure = structure._closure
    i, j = (q.vertex_index[v] for v in dropped)

    def wrong(n, pairs):
        rows = list(closure(n, pairs))
        rows[i] &= ~(1 << j)
        return tuple(rows)

    monkeypatch.setattr(structure, "_closure", wrong)
    with pytest.raises(InternalInvariantError, match=message):
        commuting_algebra(q)


@pytest.mark.parametrize("flipped, message", [
    pytest.param((1, 1), "diagonal block 1 is not full", id="diagonal"),
    pytest.param((0, 2), "block row 0 disagrees with the closure", id="closure"),
    pytest.param((2, 0), "order relation has a cycle", id="cycle"),
])
def test_each_wrong_condensation_row_raises_its_message(monkeypatch, flipped, message):
    # the condensation's rows are changed after its own checks have passed, so
    # only the algebra's checks of the rows it builds stand in the way
    reachability = algebra_module.reachability

    def wrong(quiver):
        pattern = reachability(quiver)
        order = pattern.condensation
        rows = list(order.rows)
        rows[flipped[0]] ^= 1 << flipped[1]
        pattern.__dict__["condensation"] = structure._of_rows(
            structure.Poset, elements=order.elements, rows=tuple(rows))
        return pattern

    q = Quiver("abc", [Arrow(*arrow) for arrow in CHAIN])
    monkeypatch.setattr(algebra_module, "reachability", wrong)
    with pytest.raises(InternalInvariantError, match=message):
        commuting_algebra(q)


def test_a_closure_row_the_block_rows_do_not_match_raises(monkeypatch):
    # the closure row of a's is cut after the condensation was read off it, so
    # only the vertex count of the block row a's block writes stands in the way
    reachability = algebra_module.reachability

    def wrong(quiver):
        pattern = reachability(quiver)
        rows = list(pattern.rows)
        rows[quiver.vertex_index["a"]] &= ~(1 << quiver.vertex_index["c"])
        pattern.__dict__["rows"] = tuple(rows)
        return pattern

    q = Quiver("abc", [Arrow(*arrow) for arrow in CHAIN])
    monkeypatch.setattr(algebra_module, "reachability", wrong)
    with pytest.raises(InternalInvariantError, match="block row 0 disagrees with the closure"):
        commuting_algebra(q)


def test_a_reversed_component_order_is_not_block_upper_triangular(monkeypatch):
    order = algebra_module.topological_component_order
    monkeypatch.setattr(algebra_module, "topological_component_order",
                        lambda cond: order(cond)[::-1])
    q = Quiver("abc", [Arrow(*arrow) for arrow in CHAIN])
    with pytest.raises(InternalInvariantError, match="not block upper triangular"):
        commuting_algebra(q)


def test_a_build_tests_each_component_block_shape_once(monkeypatch):
    # one check of the block shapes, against each component's mask once
    q = random_sparse_quiver(60, 120, random.Random(60))
    tested = []
    closed_order = structure._closed_order

    def counted(rows, masks, *args):
        tested.append(list(masks))
        return closed_order(rows, masks, *args)

    monkeypatch.setattr(structure, "_closed_order", counted)
    alg = commuting_algebra(q)
    assert len(alg.block_sizes) < q.n
    index = q.vertex_index
    assert tested == [[sum(1 << index[v] for v in comp) for comp in alg.partition.components]]
