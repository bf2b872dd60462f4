"""All-pairs min-max (bottleneck) distances and the single-edge zeroing update.

The distance between u and v is the minimum over u-v paths of the largest
edge weight on the path.  Over a complete weight table it is computed by a
Floyd-Warshall style recurrence using one min and one max per unordered
vertex pair per round; zeroing one edge afterwards needs only O(n^2) extra
min/max operations on the previous matrix.
"""

from __future__ import annotations

import numpy as np

from .graphs import (
    ExtendedWeighting,
    Graph,
    GraphError,
    Weighting,
    _check_weighting,
    _check_work,
    _ranks,
    _vertex_pair,
)

DistanceMatrix = ExtendedWeighting  # a table of min-max distances


def _sweep(d: np.ndarray) -> np.ndarray:
    """In-place bottleneck Floyd-Warshall on an (n, n) table of any numeric dtype; returns d.

    Round k relaxes every pair through vertex k with one max and one min.
    Row and column k do not change during round k (d[k, k] = 0 and the
    entries are nonnegative: weights, or their ranks, which are unsigned),
    so the in-place sweep realizes the round-by-round recurrence exactly.
    """
    for k in range(d.shape[0]):
        np.minimum(d, np.maximum(d[:, k, None], d[None, k, :]), out=d)
    return d


def _zero_update(d: np.ndarray, a: int, b: int) -> None:
    """In place: distances after pair {a,b} (0-based) gets weight zero.

    Every pair becomes min(d[i,j], max(d[i,a], d[b,j]), max(d[i,b], d[a,j]))
    over the old table, whose entries are nonnegative weights or ranks.  By
    symmetry column a is row a, so both max tables are built from rows a
    and b, each read contiguously, before d is written.
    """
    via_a = np.maximum(d[a, :, None], d[b])  # fresh arrays: no aliasing
    via_b = np.maximum(d[b, :, None], d[a])
    np.minimum(d, via_a, out=d)
    np.minimum(d, via_b, out=d)


def _check_sweep_work(n: int) -> None:
    """Raise GraphError when one sweep on n vertices, n * n(n-1)/2 min and as many max, would pass `graphs._WORK_OPS`."""
    _check_work(n, n * n * (n - 1))


def all_pairs_minmax(xbar: ExtendedWeighting | np.ndarray) -> DistanceMatrix:
    """All-pairs min-max distances of a complete weight table.

    Initial values are the pair weights; n rounds of the pair recurrence
    perform n * n(n-1)/2 min and as many max operations.  The rounds run
    on the entries' ranks, which gives the same distances (see the
    `solver` module docstring); an `inf` entry ranks last, and a -0.0
    entry reads +0.0, as `complete_extension` gives it.  The input is
    not modified: an `ExtendedWeighting` is ranked as it is, any other
    table is copied and checked as one once the sweep fits the work budget.
    """
    values = getattr(xbar, "values", xbar)
    try:
        n = len(values) if np.ndim(values) else 0
    except ValueError:  # ragged rows: numpy builds no array, and the table's own check names them
        ExtendedWeighting(values)
        raise
    _check_sweep_work(n)
    if not isinstance(xbar, ExtendedWeighting):
        xbar = ExtendedWeighting(xbar)
    levels, table = _ranks(xbar.values)
    _sweep(table)
    return DistanceMatrix._built(levels[table])


def zero_edge_update(d: DistanceMatrix, a: int, b: int) -> DistanceMatrix:
    """Distance matrix after the single pair {a,b} is given weight zero.

    d must hold min-max distances, as `all_pairs_minmax` (or this function)
    returns them: one round through a and b patches a matrix whose paths
    are already relaxed, but on a raw weight table it does not give the
    zeroed distances.  a and b are 1-based vertices.  Uses 2 * n(n-1)/2
    min and as many max operations; the input matrix is not modified.
    """
    a, b = _vertex_pair(d.n, a, b)
    if a == b:
        raise GraphError("zeroed pair needs two distinct vertices")
    out = d.values.copy()
    _zero_update(out, a - 1, b - 1)
    return DistanceMatrix._built(out)


def minmax_distance_bruteforce(g: Graph, x: Weighting, u: int, v: int) -> float:
    """Reference bottleneck distance by enumerating all simple u-v paths.

    Exponential; meant for small graphs as an independent check of
    `all_pairs_minmax`.
    """
    _check_weighting(g, x)
    u, v = _vertex_pair(g.n, u, v)
    if u == v:
        return 0.0
    adj = g.adjacency
    weight = dict(zip(g.edges, x.values))
    best = float("inf")
    visited = [False] * (g.n + 1)
    visited[u] = True

    def walk(w: int, path_max: float) -> None:
        nonlocal best
        if w == v:
            if path_max < best:
                best = path_max
            return
        for nb in adj[w]:
            if not visited[nb]:
                ew = weight[(w, nb) if w < nb else (nb, w)]
                visited[nb] = True
                walk(nb, path_max if path_max >= ew else ew)
                visited[nb] = False

    walk(u, 0.0)
    return best
