"""Seeded random instances: connected graphs and integer weightings.

All randomness comes from `random.Random` (the stdlib Mersenne Twister),
so a given seed reproduces the same instance on every platform.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Iterator, Sequence

from .graphs import Graph, GraphError, Weighting

DEFAULT_MAX_WEIGHT = 10**6


def random_weighting(m: int, rng: random.Random, max_weight: int = DEFAULT_MAX_WEIGHT) -> Weighting:
    """m independent integer weights drawn uniformly from [0, max_weight]."""
    return Weighting(rng.randint(0, max_weight) for _ in range(m))


class _NonTreePairs(Sequence):
    """The pairs u < v of 1..n not in `tree`, in sorted order, each made when it is indexed.

    Pair (u, v) has lexicographic rank starts[u-1] + v - u - 1, where
    starts[u-1] counts the pairs whose smaller end is below u.  With the
    tree's ranks sorted, gaps[i] = rank[i] - i counts the non-tree ranks
    below tree rank i, so non-tree pair j has rank j plus the count of
    gaps at most j.  It holds O(n) integers, not the n^2 pairs.
    """

    def __init__(self, n: int, tree: set[tuple[int, int]]):
        self._starts = [(u - 1) * n - (u - 1) * u // 2 for u in range(1, n + 1)]
        ranks = sorted(self._starts[u - 1] + v - u - 1 for u, v in tree)
        self._gaps = [r - i for i, r in enumerate(ranks)]
        self._len = n * (n - 1) // 2 - len(ranks)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, j: int) -> tuple[int, int]:
        if not 0 <= j < self._len:
            raise IndexError(j)
        r = j + bisect_right(self._gaps, j)
        u = bisect_right(self._starts, r)
        return u, r - self._starts[u - 1] + u + 1

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """The pairs in order, counting ranks and skipping the tree's, with no bisect per pair."""
        tree = {g + i for i, g in enumerate(self._gaps)}  # tree rank i is gaps[i] + i
        n = len(self._starts)
        pairs = ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
        return (pair for r, pair in enumerate(pairs) if r not in tree)


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
    in sorted pair order and weighted after the edge list is fixed.  The
    extras are drawn by index from the sorted non-tree pairs, which are
    never listed, so memory grows as n plus the edge count.
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
        edges.update(rng.sample(_NonTreePairs(n, edges), extra))
    g = Graph(n, sorted(edges))
    return g, random_weighting(g.m, rng, max_weight)
