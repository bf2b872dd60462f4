"""Seeded random instances: connected graphs and integer weightings.

All randomness comes from `random.Random` (the stdlib Mersenne Twister),
so a given seed reproduces the same instance on every platform.
"""

from __future__ import annotations

import random

from .graphs import Graph, GraphError, Weighting

DEFAULT_MAX_WEIGHT = 10**6


def random_weighting(m: int, rng: random.Random, max_weight: int = DEFAULT_MAX_WEIGHT) -> Weighting:
    """m independent integer weights drawn uniformly from [0, max_weight]."""
    return Weighting(rng.randint(0, max_weight) for _ in range(m))


def random_connected_graph(
    n: int,
    density: float,
    rng: random.Random,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> tuple[Graph, Weighting]:
    """Random connected graph with a seeded integer weighting.

    A random spanning tree guarantees connectivity; of the remaining
    non-tree pairs, round(density * count) extras are sampled, so density 0
    yields a tree and density 1 yields the complete graph.  Edges are listed
    in sorted pair order and weighted after the edge list is fixed.  A tree
    takes O(n) time and memory; extras are drawn from a list of all
    n(n-1)/2 - (n-1) non-tree pairs, so with density > 0 both grow as n^2.
    """
    if not 0.0 <= density <= 1.0:
        raise GraphError(f"density must be in [0, 1], got {density}")
    if max_weight < 0:
        raise GraphError(f"max-weight must be >= 0, got {max_weight}")
    order = list(range(1, n + 1))
    rng.shuffle(order)
    # order[randrange(i)] makes the same draw as choice(order[:i]), without the copy
    edges = {
        tuple(sorted((v, order[rng.randrange(i)]))) for i, v in enumerate(order) if i > 0
    }
    k = len(order)  # n, or 0 when n < 1 (Graph rejects that)
    extra = round(density * (k * (k - 1) // 2 - len(edges)))
    if extra > 0:  # sample(pool, 0) draws nothing, so a tree skips the pool
        pool = sorted(
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u, v) not in edges
        )
        edges.update(rng.sample(pool, extra))
    g = Graph(n, sorted(edges))
    return g, random_weighting(g.m, rng, max_weight)
