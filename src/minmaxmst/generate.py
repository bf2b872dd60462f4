"""Seeded random instances: connected graphs and integer weightings.

All randomness comes from `random.Random` (the stdlib Mersenne Twister),
so a given seed reproduces the same instance on every platform.
"""

from __future__ import annotations

import random

import numpy as np

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
    yields a tree and density 1 yields the complete graph.  Every edge is
    kept as its pair's lexicographic rank, in one int64 array: the extras
    are drawn by index from the non-tree ranks, which are never listed, so
    memory grows as n plus the edge count.  The ranks are sorted and read
    back as pairs, so edges are listed in sorted pair order, and weighted
    after the edge list is fixed.
    """
    if not 0.0 <= density <= 1.0:
        raise GraphError(f"density must be in [0, 1], got {density}")
    if max_weight < 0:
        raise GraphError(f"max-weight must be >= 0, got {max_weight}")
    order = list(range(n))  # 0-based ids: the draws depend only on the length
    rng.shuffle(order)
    k = len(order)  # n, or 0 when n < 1 (Graph rejects that)
    # order[randrange(i)] makes the same draw as choice(order[:i]), without the copy
    ends = np.array((order[1:], [order[rng.randrange(i)] for i in range(1, k)]), np.int64)
    ends.sort(axis=0)
    lo, hi = ends
    # pair (u, v) of 0-based ids u < v has lexicographic rank starts[u] + v - u - 1,
    # where starts[u] counts the pairs whose smaller end is below u
    below = np.arange(k, dtype=np.int64)
    starts = below * (2 * k - 1 - below) // 2
    offsets = starts - below - 1  # pair (u, v) has rank offsets[u] + v
    ranks = offsets[lo] + hi
    ranks.sort()
    pool = k * (k - 1) // 2 - len(ranks)
    extra = round(density * pool)
    # gaps[i] = ranks[i] - i counts the non-tree ranks below tree rank i, so
    # non-tree rank j is j plus the count of gaps at most j; sample(range(pool), 0) draws nothing
    picks = np.array(rng.sample(range(pool), extra), np.int64)
    picks += (ranks - below[: len(ranks)]).searchsorted(picks, "right")
    ranks = np.concatenate((ranks, picks))
    ranks.sort()
    u = starts.searchsorted(ranks, "right")  # the smaller end, 1-based
    g = Graph(n, np.array((u, ranks - offsets[u - 1] + 1)).T)
    return g, random_weighting(g.m, rng, max_weight)
