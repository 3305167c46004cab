import random
import tracemalloc

import pytest

from commalg import Arrow, QuiverError
from commalg.randgen import (
    random_poset,
    random_quiver,
    random_sparse_quiver,
    random_tree_quiver,
    random_weights,
)
from commalg.structure import path_components


def test_random_quiver_seeded():
    assert random_quiver(5, 8, 3) == random_quiver(5, 8, 3)
    assert random_quiver(5, 8, 3) != random_quiver(5, 8, 4)


def test_random_quiver_validation():
    with pytest.raises(QuiverError):
        random_quiver(0, 0, 1)
    with pytest.raises(QuiverError):
        random_quiver(2, -1, 1)


def test_random_sparse_quiver_no_duplicate_pairs():
    for seed in range(10):
        q = random_sparse_quiver(4, 10, seed)
        pairs = [(a.source, a.target) for a in q.arrows]
        assert len(set(pairs)) == len(pairs)
    with pytest.raises(QuiverError):
        random_sparse_quiver(2, 5, 0)  # only 4 distinct pairs exist


def _sparse_arrows_from_the_pair_list(n, k, seed):
    # the reference route: sample the list of all n * n endpoint pairs
    vertices = [f"v{i + 1}" for i in range(n)]
    pairs = [(s, t) for s in vertices for t in vertices]
    chosen = random.Random(seed).sample(pairs, k)
    return tuple(Arrow(f"a{j + 1}", s, t) for j, (s, t) in enumerate(chosen))


@pytest.mark.parametrize("n, k, seed", [(7, 20, 1), (300, 600, 300), (50, 2500, 3),
                                        (2, 4, 0), (1, 1, 5), (9, 0, 2)])
def test_random_sparse_quiver_draws_what_the_pair_list_draws(n, k, seed):
    q = random_sparse_quiver(n, k, random.Random(seed))
    assert q.arrows == _sparse_arrows_from_the_pair_list(n, k, seed)


def test_random_sparse_quiver_memory_follows_the_arrows():
    # the n * n = 4,000,000 endpoint pairs are never listed
    tracemalloc.start()
    try:
        q = random_sparse_quiver(2000, 4000, random.Random(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(q.arrows) == 4000
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_sparse_quiver(3, -1, 1),
        lambda: random_sparse_quiver(0, 0, 1),
        lambda: random_tree_quiver(0, 1),
        lambda: random_poset(0, 1),
    ],
    ids=["sparse_negative_arrows", "sparse_no_vertex", "tree_no_vertex", "poset_no_element"],
)
def test_generators_reject_impossible_sizes(make):
    with pytest.raises(QuiverError):
        make()


def test_random_tree_quiver_shape():
    for seed in range(10):
        n = random.Random(seed).randint(1, 9)
        q = random_tree_quiver(n, seed)
        assert len(q.arrows) == n - 1
        # a tree has no directed cycles: every component is a singleton
        assert path_components(q).sizes == (1,) * n


def test_random_poset_axioms_hold():
    for seed in range(10):
        p = random_poset(6, seed)  # Poset.__post_init__ checks the axioms
        assert len(p) == 6
        assert p.le("x1", "x1")


def test_random_weights_nonzero():
    q = random_quiver(4, 9, 0)
    f = random_weights(q, 0)
    assert set(f.weights) == {a.name for a in q.arrows}
    assert all(v != 0 for v in f.weights.values())
    assert random_weights(q, 5).weights == random_weights(q, 5).weights
