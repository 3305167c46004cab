"""Seeded random quivers, trees, posets, and weights for property testing."""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import CoefficientFunction
from .errors import QuiverError
from .poset import Poset
from .quiver import Arrow, Quiver

__all__ = [
    "random_quiver",
    "random_sparse_quiver",
    "random_tree_quiver",
    "random_poset",
    "random_weights",
]


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_quiver(n_vertices: int, n_arrows: int, seed_or_rng, name: str = "R") -> Quiver:
    """Uniform random endpoints; loops and parallel arrows allowed."""
    if n_vertices < 1 or n_arrows < 0:
        raise QuiverError("need at least one vertex and a nonnegative arrow count")
    rng = _rng(seed_or_rng)
    vertices = [f"v{i + 1}" for i in range(n_vertices)]
    arrows = [
        Arrow(f"a{k + 1}", rng.choice(vertices), rng.choice(vertices))
        for k in range(n_arrows)
    ]
    return Quiver(vertices, arrows, name=name)


def random_sparse_quiver(
    n_vertices: int, n_arrows: int, seed_or_rng, name: str = "R"
) -> Quiver:
    """Endpoint pairs sampled without replacement: no parallel duplicates.

    Loops are allowed, and path counts stay manageable: use this for oracle-heavy
    suites.  The k pairs are k indices s * n + t drawn from range(n * n): O(k) memory.
    """
    rng = _rng(seed_or_rng)
    vertices = [f"v{i + 1}" for i in range(n_vertices)]
    n = len(vertices)
    if not 0 <= n_arrows <= n * n:
        raise QuiverError(f"need 0 to {n * n} arrows, one per distinct endpoint pair")
    chosen = (divmod(i, n) for i in rng.sample(range(n * n), n_arrows))
    arrows = [Arrow(f"a{k + 1}", vertices[s], vertices[t]) for k, (s, t) in enumerate(chosen)]
    return Quiver(vertices, arrows, name=name)


def random_tree_quiver(n_vertices: int, seed_or_rng, name: str = "T") -> Quiver:
    """Random spanning tree with each edge oriented by a coin flip."""
    if n_vertices < 1:
        raise QuiverError("need at least one vertex")
    rng = _rng(seed_or_rng)
    vertices = [f"v{i + 1}" for i in range(n_vertices)]
    arrows = []
    for i in range(1, n_vertices):
        j = rng.randrange(i)
        a, b = vertices[j], vertices[i]
        if rng.random() < 0.5:
            a, b = b, a
        arrows.append(Arrow(f"a{i}", a, b))
    return Quiver(vertices, arrows, name=name)


def random_poset(n_elements: int, seed_or_rng, edge_prob: float = 0.4) -> Poset:
    """Transitive closure of a random DAG on x1 < ... layered by index."""
    if n_elements < 1:
        raise QuiverError("need at least one element")
    rng = _rng(seed_or_rng)
    elements = [f"x{i + 1}" for i in range(n_elements)]
    pairs = [
        (elements[i], elements[j])
        for i in range(n_elements)
        for j in range(i + 1, n_elements)
        if rng.random() < edge_prob
    ]
    return Poset.from_pairs(elements, pairs)


def random_weights(quiver: Quiver, seed_or_rng) -> CoefficientFunction:
    """Nonzero rational weight for every arrow."""
    rng = _rng(seed_or_rng)
    weights = {}
    for a in quiver.arrows:
        num = rng.choice([n for n in range(-5, 6) if n != 0])
        den = rng.randint(1, 5)
        weights[a.name] = Fraction(num, den)
    return CoefficientFunction(weights)
