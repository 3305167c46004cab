"""The bitset preorder core against brute-force definitions on small matrices.

Each reference below is the textbook definition, written with plain loops
over a bool matrix, and is deliberately independent of the core.
"""

import random
from itertools import combinations, product

import pytest

from commalg import (
    ComponentPartition,
    InternalInvariantError,
    Poset,
    QuiverError,
    ReachabilityPattern,
    condensation,
    hasse,
    path_components,
    skeleton,
)
from commalg.randgen import random_quiver
from commalg.structure import _closure, _components, _successors


def warshall(n, pairs):
    """Reflexive-transitive closure as row bitsets, k outermost."""
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        rows[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return tuple(rows)


def is_preorder(leq):
    n = len(leq)
    return all(leq[i][i] for i in range(n)) and all(
        leq[i][k] or not (leq[i][j] and leq[j][k])
        for i, j, k in product(range(n), repeat=3)
    )


def is_partial_order(leq):
    n = len(leq)
    return is_preorder(leq) and all(
        i == j or not (leq[i][j] and leq[j][i])
        for i, j in product(range(n), repeat=2)
    )


def brute_covers(leq):
    n = len(leq)
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and leq[i][j]
        and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))
    )


def brute_linear_extension(leq):
    remaining = list(range(len(leq)))
    out = []
    while remaining:
        minimal = [i for i in remaining
                   if not any(j != i and leq[j][i] for j in remaining)]
        out.append(min(minimal))
        remaining.remove(out[-1])
    return tuple(out)


def brute_longest_chain(leq):
    n = len(leq)
    best = 0
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            if all(leq[a][b] or leq[b][a] for a, b in combinations(subset, 2)):
                best = size
    return best


def random_matrix(rng, n):
    """A raw random matrix, a closed relation, or a closed one with a bit flipped."""
    kind = rng.randrange(3)
    if kind == 0:
        return tuple(tuple(rng.random() < 0.5 for _ in range(n)) for _ in range(n))
    leq = [[i == j or rng.random() < 0.25 for j in range(n)] for i in range(n)]
    for k, i, j in product(range(n), repeat=3):  # k outermost: Warshall
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    if kind == 2 and n:
        i, j = rng.randrange(n), rng.randrange(n)
        leq[i][j] = not leq[i][j]
    return tuple(tuple(row) for row in leq)


def random_partial_order(rng, n):
    """Closure of random pairs that go up a random ranking of the elements."""
    rank = list(range(n))
    rng.shuffle(rank)
    leq = [[i == j or (rank[i] < rank[j] and rng.random() < 0.3) for j in range(n)]
           for i in range(n)]
    for k, i, j in product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    return tuple(tuple(row) for row in leq)


@pytest.mark.parametrize("seed", range(300))
def test_validators_accept_exactly_the_definition(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 7)
    leq = random_matrix(rng, n)
    names = tuple(f"x{i}" for i in range(n))
    cases = [
        (lambda: ReachabilityPattern(names, leq), is_preorder, InternalInvariantError),
        (lambda: Poset(names, leq), is_partial_order, QuiverError),
    ]
    for build, accepts, error in cases:
        if accepts(leq):
            build()
        else:
            with pytest.raises(error):
                build()


@pytest.mark.parametrize("seed", range(20))
def test_validators_check_the_shape(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    leq = list(random_partial_order(rng, n))
    i = rng.randrange(n)
    leq[i] = leq[i][:-1]
    names = tuple(f"x{k}" for k in range(n))
    with pytest.raises(InternalInvariantError):
        ReachabilityPattern(names, tuple(leq))
    with pytest.raises(QuiverError):
        Poset(names, tuple(leq))
    with pytest.raises(InternalInvariantError):
        ReachabilityPattern(names + ("extra",), random_partial_order(rng, n))


def test_antisymmetry_error_names_both_elements():
    with pytest.raises(QuiverError, match="'a' and 'b'"):
        Poset(("a", "b"), ((True, True), (True, True)))


@pytest.mark.parametrize("seed", range(200))
def test_poset_algorithms_match_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    leq = random_partial_order(rng, n)
    poset = Poset(tuple(f"x{i}" for i in range(n)), leq)
    assert hasse(poset).covers == brute_covers(leq)
    assert poset.linear_extension() == brute_linear_extension(leq)
    assert poset.longest_chain() == brute_longest_chain(leq)
    pairs = [(poset.elements[i], poset.elements[j]) for i, j in brute_covers(leq)]
    assert poset.leq == leq
    assert Poset.from_pairs(poset.elements, pairs) == poset
    assert hash(Poset.from_pairs(poset.elements, pairs)) == hash(poset)


def test_covers_of_duplicate_and_shortcut_pairs():
    poset = Poset.from_pairs("abc", [("a", "b"), ("b", "c"), ("a", "b"), ("a", "c"), ("a", "c")])
    assert poset.covers == ((0, 1), (1, 2))


@pytest.mark.parametrize("seed", range(100))
def test_covers_from_pairs_that_are_not_the_covers_match_brute_force(seed):
    # every cover, half the related pairs as shortcuts, then half again repeated
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    leq = random_partial_order(rng, n)
    names = tuple(f"x{i}" for i in range(n))
    related = [(i, j) for i, j in product(range(n), repeat=2) if i != j and leq[i][j]]
    pairs = list(brute_covers(leq)) + rng.sample(related, len(related) // 2)
    pairs += rng.choices(pairs, k=len(pairs) // 2)
    rng.shuffle(pairs)
    poset = Poset.from_pairs(names, [(names[i], names[j]) for i, j in pairs])
    assert poset.leq == leq
    assert poset.covers == brute_covers(leq)


@pytest.mark.parametrize("seed", [8, 11, 12, 15, 18, 23])
def test_skeleton_covers_over_parallel_and_shortcut_arrows_match_brute_force(seed):
    # the skeleton's order is generated by the arrows between components,
    # which here repeat a pair and also join pairs that are not covers
    quiver = random_quiver(12, 18, seed)
    poset, owner = skeleton(quiver).poset, path_components(quiver).membership
    between = [(owner[a.source], owner[a.target]) for a in quiver.arrows
               if owner[a.source] != owner[a.target]]
    assert len(set(between)) < len(between)
    assert set(between) - set(poset.covers)
    assert poset.covers == brute_covers(poset.leq)


def test_condensation_rejects_a_partition_that_splits_reachability():
    # a reaches b and c, but c reaches neither: the group {a, c} is no component,
    # and whether it reaches b depends on the representative
    pattern = ReachabilityPattern(
        ("a", "b", "c"),
        ((True, True, True), (False, True, False), (False, False, True)),
    )
    partition = ComponentPartition((("a", "c"), ("b",)))
    with pytest.raises(InternalInvariantError, match="depends on the representative"):
        condensation(partition, pattern)
    partition = ComponentPartition((("a",), ("b",), ("c",)))
    assert condensation(partition, pattern).leq == pattern.bits
    with pytest.raises(QuiverError):
        condensation(ComponentPartition((("a", "b"), ("zz",))), pattern)


def test_component_partition_rejects_empty_and_overlapping_components():
    with pytest.raises(InternalInvariantError, match="empty component"):
        ComponentPartition((("a",), ()))
    with pytest.raises(InternalInvariantError, match="vertex 'b' in two components"):
        ComponentPartition((("a", "b"), ("b",)))


def bfs_reach(quiver, source):
    seen, frontier = {source}, [source]
    while frontier:
        frontier = [a.target for v in frontier for a in quiver.arrows_from[v]
                    if a.target not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize("seed", range(300))
def test_path_components_are_mutual_reachability_classes(seed):
    # loops and parallel arrows allowed; a sparse draw leaves singletons
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    quiver = random_quiver(n, rng.randint(0, 2 * n), rng)
    reach = {v: bfs_reach(quiver, v) for v in quiver.vertices}
    classes = []
    for v in quiver.vertices:  # declaration order: first vertex, then members
        if not any(v in c for c in classes):
            classes.append(tuple(w for w in quiver.vertices
                                 if w in reach[v] and v in reach[w]))
    assert path_components(quiver).components == tuple(classes)


@pytest.mark.parametrize("seed", range(200))
def test_closure_matches_warshall(seed):
    # loops, 2-cycles and parallel pairs included, from sparse to dense
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randint(0, 3 * n) if n else 0)]
    for i, j in rng.sample(pairs, min(len(pairs), 4)):
        pairs += [(j, i), (i, j), (i, i)]
    rng.shuffle(pairs)
    succ = _successors(n, pairs)
    assert _closure(succ, _components(n, succ)) == warshall(n, pairs)
