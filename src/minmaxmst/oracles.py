"""Independent reference algorithms used to cross-check the branch-free solvers.

Also characterization algorithms for the bottleneck/MST correspondence:
the edges whose bottleneck distance equals their weight form the unique MST
when weights are distinct, and bottleneck distances in a graph coincide
with path maxima inside any of its minimum spanning trees.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .distances import DistanceMatrix, all_pairs_minmax
from .graphs import Graph, Weighting, _check_weighting, _extension_layout, _UnionFind

BRUTEFORCE_MAX_N = 8


class PreconditionError(ValueError):
    """An algorithm's input hypothesis is violated (size limit, duplicate weights)."""


def kruskal_tree(g: Graph, x: Weighting) -> tuple[int, ...]:
    """Edge indices of a minimum spanning tree (ties broken by edge index)."""
    _check_weighting(g, x)
    uf = _UnionFind(g.n)
    chosen: list[int] = []
    for idx in sorted(range(g.m), key=lambda i: (x.values[i], i)):
        u, v = g.edges[idx]
        if uf.union(u, v):
            chosen.append(idx)
            if len(chosen) == g.n - 1:
                break
    return tuple(chosen)


def kruskal_mst(g: Graph, x: Weighting) -> float:
    """MST weight via sort-edges-ascending plus union-find (exactly rounded sum)."""
    return math.fsum(x.values[idx] for idx in kruskal_tree(g, x))


@lru_cache(maxsize=8)  # one K_8 array is 7 MB
def _spanning_tree_array(g: Graph) -> np.ndarray:
    """All spanning trees of g as an array of edge-index rows (backtracking)."""
    n, m = g.n, g.m
    trees: list[tuple[int, ...]] = []
    chosen: list[int] = []
    parent = list(range(n + 1))

    # no path compression: the backtracking undo `parent[ru] = ru` relies on it
    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    def extend(start: int) -> None:
        if len(chosen) == n - 1:
            trees.append(tuple(chosen))
            return
        # not enough edges left to finish the tree
        for idx in range(start, m - (n - 1 - len(chosen)) + 1):
            u, v = g.edges[idx]
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            parent[ru] = rv
            chosen.append(idx)
            extend(idx + 1)
            chosen.pop()
            parent[ru] = ru

    extend(0)
    return np.array(trees, dtype=np.int32).reshape(len(trees), n - 1)


def bruteforce_mst(g: Graph, x: Weighting) -> float:
    """MST weight by enumerating every spanning tree; limited to n <= 8.

    Returns the exactly rounded sum of the tree whose numpy sum is smallest.
    """
    _check_weighting(g, x)
    if g.n > BRUTEFORCE_MAX_N:
        raise PreconditionError(
            f"bruteforce_mst is limited to n <= {BRUTEFORCE_MAX_N}, got n={g.n}"
        )
    if g.n == 1:
        return 0.0
    trees = _spanning_tree_array(g)
    weights = np.asarray(x.values, dtype=float)[trees]
    return math.fsum(weights[np.argmin(weights.sum(axis=1))])


def maggs_plotkin_mst(g: Graph, x: Weighting) -> float:
    """MST weight for pairwise-distinct weights, selecting by distances.

    Computes bottleneck distances inside g (absent pairs enter the
    recurrence with an infinite sentinel, never the complete extension) and
    sums the weights of the edges whose distance equals their own weight;
    with distinct weights those edges are exactly the unique MST.
    """
    _check_weighting(g, x)
    if len(set(x.values)) != g.m:
        raise PreconditionError("maggs_plotkin_mst requires pairwise distinct weights")
    table = _extension_layout(g, np.array(x.values, dtype=float), 0.0, math.inf)
    d = all_pairs_minmax(table).values
    return math.fsum(
        w for (u, v), w in zip(g.edges, x.values) if d[u - 1, v - 1] == w
    )


def hu_minmax_via_mst(g: Graph, x: Weighting) -> DistanceMatrix:
    """Bottleneck distances read off a minimum spanning tree.

    Builds an MST with Kruskal and fills entry (u,v) with the largest edge
    weight on the unique tree path between u and v; this matrix equals the
    all-pairs min-max distances of g itself.
    """
    tree = kruskal_tree(g, x)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n + 1)]
    for idx in tree:
        u, v = g.edges[idx]
        w = x.values[idx]
        adj[u].append((v, w))
        adj[v].append((u, w))
    out = [[0.0] * g.n for _ in range(g.n)]
    for src in range(1, g.n + 1):
        stack = [(src, 0, 0.0)]  # (vertex, parent, max weight from src)
        while stack:
            vert, par, high = stack.pop()
            for nb, w in adj[vert]:
                if nb != par:
                    h = high if high >= w else w
                    out[src - 1][nb - 1] = h
                    stack.append((nb, vert, h))
    return DistanceMatrix(out)
