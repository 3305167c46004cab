"""The bitset preorder core against brute-force definitions on small matrices.

Each reference below is the textbook definition, written with plain loops
over a bool matrix, and is deliberately independent of the core.
"""

import random
from itertools import combinations, product

import pytest

from commalg import (
    ComponentPartition,
    CondensationOrder,
    InternalInvariantError,
    Poset,
    QuiverError,
    ReachabilityPattern,
    condensation,
    hasse,
)


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
        (lambda: CondensationOrder(leq), is_partial_order, InternalInvariantError),
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
    with pytest.raises(InternalInvariantError):
        CondensationOrder(tuple(leq))
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
    assert Poset.from_pairs(poset.elements, pairs) == poset


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
    assert condensation(partition, pattern).relation == pattern.bits
    with pytest.raises(QuiverError):
        condensation(ComponentPartition((("a", "b"), ("zz",))), pattern)
