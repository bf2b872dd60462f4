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

from .distances import DistanceMatrix, _check_sweep_work, _sweep
from .graphs import Graph, Weighting, _check_bytes, _check_weighting, _check_work, _extension_layout, _forest, _ranks, _weight_sum

BRUTEFORCE_MAX_N = 8


class PreconditionError(ValueError):
    """An algorithm's input hypothesis is violated (size limit, duplicate weights)."""


def kruskal_tree(g: Graph, x: Weighting) -> tuple[int, ...]:
    """Edge indices of a minimum spanning tree (ties broken by edge index)."""
    _check_weighting(g, x)
    order = np.argsort(x.array, kind="stable")  # stable: equal weights keep edge-index order
    return tuple(order[_forest(g.n, *g._ends[:, order])].tolist())


def kruskal_mst(g: Graph, x: Weighting) -> float:
    """MST weight via sort-edges-ascending plus union-find (exactly rounded sum)."""
    return _weight_sum(x.array[list(kruskal_tree(g, x))].tolist())


@lru_cache(maxsize=8)  # one K_8 array is 7 MB
def _spanning_tree_array(g: Graph) -> np.ndarray:
    """All spanning trees of g as an array of edge-index rows (backtracking)."""
    n, m, edges = g.n, g.m, g.edges
    trees: list[tuple[int, ...]] = []
    chosen: list[int] = []
    parent = list(range(n + 1))

    # no path compression, unlike graphs._forest: the backtracking undo `parent[ru] = ru` relies on it
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
            u, v = edges[idx]
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
    trees = _spanning_tree_array(g)
    weights = x.array[trees]
    with np.errstate(over="ignore"):  # a sum past the float range is inf; _weight_sum then raises
        sums = weights.sum(axis=1)
    return _weight_sum(weights[np.argmin(sums)])


def maggs_plotkin_mst(g: Graph, x: Weighting) -> float:
    """MST weight for pairwise-distinct weights, selecting by distances.

    Computes bottleneck distances inside g (absent pairs enter the
    recurrence with an infinite sentinel, never the complete extension) and
    sums the weights of the edges whose distance equals their own weight;
    with distinct weights those edges are exactly the unique MST.  One
    ranking serves both: the weights and the sentinel are distinct exactly
    when they make m + 1 levels, and the sweep runs on their ranks (see the
    `solver` module docstring), with the lowest rank on the diagonal, at or
    below every entry.  A sweep over the work budget is refused before
    anything is allocated.
    """
    _check_weighting(g, x)
    _check_sweep_work(g.n)
    levels, ranks = _ranks(np.append(x.array, math.inf))
    if len(levels) != g.m + 1:
        raise PreconditionError("maggs_plotkin_mst requires pairwise distinct weights")
    edge = ranks[:-1]
    d = _sweep(_extension_layout(g, edge, 0, ranks[-1]))
    u, v = g._ends
    return _weight_sum(x.array[d[u, v] == edge])


def hu_minmax_via_mst(g: Graph, x: Weighting) -> DistanceMatrix:
    """Bottleneck distances read off a minimum spanning tree, by single linkage (Gower & Ross 1969).

    Each edge of Kruskal's tree, in ascending order, joins two components, found
    by their labels in one array, and gives every pair across them its weight,
    the largest on their tree path: g's own all-pairs min-max distances.  Its
    float64 table is checked against `_TABLE_BYTES`, and its n(n-1) path
    maxima against `_WORK_OPS`, before anything is built; `kruskal_tree` checks the weighting.
    """
    _check_bytes(g.n, 8 * g.n * g.n, "table")
    _check_work(g.n, g.n * (g.n - 1))
    tree = list(kruskal_tree(g, x))
    out = np.zeros((g.n, g.n))
    comp = np.arange(g.n)  # comp[v]: the label of the 0-based vertex v's component
    for (u, v), w in zip(g._ends[:, tree].T.tolist(), x.array[tree].tolist()):
        a, b = comp == comp[u], comp == comp[v]
        out[np.ix_(a, b)] = out[np.ix_(b, a)] = w + 0.0  # a -0.0 weight reads +0.0
        comp[b] = comp[u]
    return DistanceMatrix._built(out)
