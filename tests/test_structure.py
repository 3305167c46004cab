import random

import pytest

from commalg import (
    ComponentPartition,
    InternalInvariantError,
    Poset,
    QuiverError,
    ReachabilityPattern,
    commuting_algebra,
    condensation,
    consistent_ordering,
    enumerate_paths,
    longest_chain,
    path_components,
    reachability,
    topological_component_order,
)
from commalg import structure
from commalg.quiver import Quiver
from commalg.randgen import random_quiver


def test_components_two_block(two_block):
    part = path_components(two_block)
    assert part.components == (("v1", "v2", "v3", "v4"), ("v5", "v6"))
    assert part.sizes == (4, 2)
    assert part.membership["v6"] == 1


def test_components_three_block(three_block):
    part = path_components(three_block)
    assert part.components == (("x1", "x2", "x3", "x4"), ("x5",), ("x6",))


def test_components_cycle(cycle6):
    assert path_components(cycle6).components == (tuple(cycle6.vertices),)


def test_components_no_arrows():
    q = Quiver(["a", "b", "c"])
    assert path_components(q).components == (("a",), ("b",), ("c",))


def test_reachability_triangle(triangle_quiver):
    pat = reachability(triangle_quiver)
    assert pat.bitstrings() == ("111", "111", "111")
    assert pat.true_count() == 9


def test_reachability_two_block(two_block):
    pat = reachability(two_block)
    assert pat.at("v1", "v6")
    assert not pat.at("v5", "v1")
    assert all(pat.at(v, v) for v in two_block.vertices)


@pytest.mark.parametrize("seed", range(30))
def test_reachability_agrees_with_path_search(seed):
    q = random_quiver(6, 10, seed)
    pat = reachability(q)
    for s in q.vertices:
        for t in q.vertices:
            # a path of length < n exists iff any path exists
            found = bool(enumerate_paths(q, s, t, q.n - 1, cap=500_000))
            assert pat.at(s, t) == found


def test_pattern_validation():
    with pytest.raises(InternalInvariantError):
        ReachabilityPattern(("v",), ((False,),))  # not reflexive
    with pytest.raises(InternalInvariantError):
        ReachabilityPattern(
            ("a", "b", "c"),
            ((True, True, False), (False, True, True), (False, False, True)),
        )  # not transitive
    with pytest.raises(InternalInvariantError):
        ReachabilityPattern(("a", "b"), ((True,),))


def test_pattern_reordered(two_block):
    pat = reachability(two_block)
    with pytest.raises(QuiverError):
        pat.at("zz", "v1")


def test_condensation_two_block(two_block):
    part = path_components(two_block)
    cond = condensation(part, reachability(two_block))
    assert cond.leq == ((True, True), (False, True))
    assert longest_chain(cond) == 2


def test_condensation_three_block(three_block):
    part = path_components(three_block)
    cond = condensation(part, reachability(three_block))
    assert len(cond) == 3
    assert cond.leq == (
        (True, True, True),
        (False, True, True),
        (False, False, True),
    )
    assert longest_chain(cond) == 3


def test_condensation_single_component(cycle6):
    cond = condensation(path_components(cycle6), reachability(cycle6))
    assert cond.leq == ((True,),)
    assert longest_chain(cond) == 1


def test_condensation_validation():
    # a partition that splits the 2-cycle a <-> b leaves a symmetric pair
    q = Quiver(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])
    split = ComponentPartition((("a",), ("b",)))
    with pytest.raises(InternalInvariantError,
                       match="condensation must be antisymmetric: 0 and 1"):
        condensation(split, reachability(q))


def test_condensation_ignores_a_sink_outside_the_partition():
    # the bits and edges of s, which no component holds, play no part
    q = Quiver(["a", "b", "s"], [("x", "a", "b"), ("y", "b", "s"), ("z", "a", "s")])
    cond = condensation(ComponentPartition((("a",), ("b",))), reachability(q))
    assert cond == Poset(["a", "b"], [[True, True], [False, True]])
    assert cond.covers == ((0, 1),)
    assert cond.linear_extension() == (0, 1)


def test_condensation_without_the_middle_of_a_path_reaches_too_little():
    # a -> m -> b without m: a's row holds b, but no edge between components
    # is left to reach it, since an edge into m counts as staying inside a
    q = Quiver(["a", "m", "b"], [("x", "a", "m"), ("y", "m", "b")])
    with pytest.raises(InternalInvariantError,
                       match="condensation row 0 holds more than its edges reach"):
        condensation(ComponentPartition((("a",), ("b",))), reachability(q))


def test_parallel_arrows_between_components_give_the_poset_of_one():
    cycle = [("x", "a", "b"), ("y", "b", "a")]
    one = Quiver(["a", "b", "c"], cycle + [("z", "a", "c")])
    many = Quiver(["a", "b", "c"], cycle + [("z", "a", "c"), ("w", "a", "c"), ("u", "b", "c")])
    cond = condensation(path_components(many), reachability(many))
    assert cond == condensation(path_components(one), reachability(one))
    assert cond == Poset(["a", "c"], [[True, True], [False, True]])
    assert (cond.covers, cond.linear_extension(), longest_chain(cond)) == (((0, 1),), (0, 1), 2)


def test_topological_order_tie_break():
    # two incomparable components after a common source; smallest index first
    q = Quiver(["s", "b", "a"], [("x", "s", "b"), ("y", "s", "a")])
    part = path_components(q)
    assert part.components == (("s",), ("b",), ("a",))
    cond = condensation(part, reachability(q))
    assert topological_component_order(cond) == (0, 1, 2)


def test_topological_order_respects_edges():
    # declaration order is the reverse of the flow
    q = Quiver(["z", "y", "x"], [("a", "x", "y"), ("b", "y", "z")])
    cond = condensation(path_components(q), reachability(q))
    order = topological_component_order(cond)
    # component 0 is {z}, 1 is {y}, 2 is {x}; x before y before z
    assert order == (2, 1, 0)


def test_consistent_ordering_reorders():
    q = Quiver(["z", "y", "x"], [("a", "x", "y"), ("b", "y", "z")])
    order = consistent_ordering(q, path_components(q))
    assert order == ("x", "y", "z")
    pat = commuting_algebra(q).pattern
    assert pat.order == order
    # upper triangular in the consistent order
    for i in range(3):
        for j in range(i):
            assert not pat.bits[i][j]


def test_consistent_ordering_two_block(two_block):
    order = consistent_ordering(two_block, path_components(two_block))
    assert order == ("v1", "v2", "v3", "v4", "v5", "v6")


@pytest.mark.parametrize("seed", range(120))
def test_condensation_invariants_random(seed):
    rng = random.Random(seed)
    q = random_quiver(rng.randint(1, 10), rng.randint(0, 18), rng)
    part = path_components(q)
    pat = reachability(q)
    # all-representative agreement and the poset axioms are enforced inside
    cond = condensation(part, pat)
    order = topological_component_order(cond)
    assert sorted(order) == list(range(len(cond)))
    pos = {c: i for i, c in enumerate(order)}
    for i in range(len(cond)):
        for j in range(len(cond)):
            if cond.leq[i][j] and i != j:
                assert pos[i] < pos[j]
    assert 1 <= longest_chain(cond) <= len(cond)
    # consistent ordering keeps components contiguous
    vorder = consistent_ordering(q, part, pat)
    starts = [vorder.index(part.components[c][0]) for c in order]
    assert starts == sorted(starts)
    flat = [v for c in order for v in part.components[c]]
    assert list(vorder) == flat


@pytest.mark.parametrize("seed", range(50))
def test_the_algebra_and_consistent_ordering_agree(seed):
    # two routes to the consistent order: the algebra's checked sweep over the
    # condensation, and consistent_ordering over the components and pattern
    rng = random.Random(seed)
    q = random_quiver(rng.randint(1, 10), rng.randint(0, 18), rng)
    alg, pat = commuting_algebra(q), reachability(q)
    assert alg.order == consistent_ordering(q, path_components(q))
    for v in q.vertices:
        for w in q.vertices:
            assert alg.pattern.at(v, w) == pat.at(v, w)


def test_membership_covers_every_vertex(two_block):
    part = path_components(two_block)
    assert set(part.membership) == set(two_block.vertices)
    assert len(part) == 2


def _count_graph_builds(monkeypatch):
    """Count the successor-list builds and Tarjan runs of the structural core."""
    calls = {"_successors": 0, "_components": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(structure, name, counted(name, getattr(structure, name)))
    return calls


def test_a_build_makes_its_successors_and_components_once(monkeypatch, two_block):
    calls = _count_graph_builds(monkeypatch)
    assert commuting_algebra(two_block).block_sizes == (4, 2)
    assert calls == {"_successors": 1, "_components": 1}


def test_from_pairs_makes_its_successors_and_components_once(monkeypatch):
    calls = _count_graph_builds(monkeypatch)
    poset = Poset.from_pairs("abcd", [("a", "b"), ("b", "c"), ("a", "a"), ("c", "d")])
    assert poset.le("a", "d") and not poset.le("d", "a")
    assert calls == {"_successors": 1, "_components": 1}
