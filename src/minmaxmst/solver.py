"""Branch-free MST-weight solvers built on successive bottleneck distances.

The weight of a minimum spanning tree equals the telescoping sum, over the
edges e_1..e_{n-1} of any fixed spanning tree, of the bottleneck distance of
e_i under the weighting in which e_1..e_{i-1} were already zeroed.  Working
over the complete extension, one full distance computation plus n-2 cheap
zeroing updates gives the weight in O(n^3) (min,max,+) operations; the naive
driver recomputes distances from scratch each round in O(n^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .counting import OpCounts
from .distances import _sweep, _zero_update
from .graphs import (
    Graph,
    SpanningTree,
    Weighting,
    _check_weighting,
    _extension_table,
    fix_spanning_tree,
    validate_spanning_tree,
)


@dataclass(frozen=True, init=False)
class Decomposition:
    """Per-tree-edge bottleneck terms whose sum is the MST weight.

    The terms are the MST's edge weights in some order, so `total` is their
    exactly rounded sum (`math.fsum`), the same for every tree and order.
    """

    terms: tuple[tuple[int, float], ...]
    total: float

    def __init__(self, terms: Iterable[tuple[int, float]]):
        terms = tuple((int(e), float(d)) for e, d in terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "total", math.fsum(d for _, d in terms))


def _decompose(g: Graph, x: Weighting, order: tuple[int, ...]) -> Decomposition:
    d = _extension_table(g, x)
    _sweep(d)
    terms: list[tuple[int, float]] = []
    last = len(order) - 1
    for pos, eidx in enumerate(order):
        u, v = g.edges[eidx]
        terms.append((eidx, d[u - 1, v - 1]))
        if pos < last:  # no update needed after the final tree edge
            _zero_update(d, u - 1, v - 1)
    return Decomposition(terms)


def mst_decomposition(g: Graph, x: Weighting, t: SpanningTree) -> Decomposition:
    """Bottleneck-distance terms of x along the tree t, and their sum.

    Term i is the min-max distance of tree edge e_i over the complete
    extension of the weighting with e_1..e_{i-1} zeroed.  The total equals
    the MST weight of (g, x) for every spanning tree and edge order.
    """
    _check_weighting(g, x)
    validate_spanning_tree(g, t)
    return _decompose(g, x, t.edges)


def fw_pair_ops(n: int) -> int:
    """Unordered-pair relaxations in one full distance run: n * n(n-1)/2."""
    return n * (n * (n - 1) // 2)


def puredp_op_counts(n: int, m: int) -> OpCounts:
    """Closed-form operation tally of `mst_puredp` from its loop bounds."""
    pairs = n * (n - 1) // 2
    fw = fw_pair_ops(n)
    rounds = max(n - 2, 0)
    return OpCounts(
        min_count=fw + rounds * 2 * pairs,
        max_count=max(m - 1, 0) + fw + rounds * 2 * pairs,
        add_count=max(n - 1, 0),
    )


def naive_op_counts(n: int, m: int) -> OpCounts:
    """Closed-form operation tally of `mst_puredp_naive`."""
    fw = fw_pair_ops(n)
    runs = max(n - 1, 0)
    return OpCounts(
        min_count=runs * fw,
        max_count=max(m - 1, 0) + runs * fw,
        add_count=max(n - 1, 0),
    )


def mst_puredp(g: Graph, x: Weighting) -> tuple[float, OpCounts]:
    """MST weight by one distance run plus incremental zeroing updates.

    Extends to the complete graph, computes all min-max distances once,
    then walks the fixed spanning tree: read the current distance of the
    tree edge, add it to the accumulator, zero the edge and update the
    matrix in O(n^2) (the update after the last edge is skipped).  The
    operation sequence depends only on the graph, never on the weights,
    so the counts returned are the schedule's closed form; `count_ops` of
    the compiled circuit tallies the same schedule op by op.
    """
    _check_weighting(g, x)
    dec = _decompose(g, x, fix_spanning_tree(g).edges)
    return dec.total, puredp_op_counts(g.n, g.m)


def mst_puredp_naive(g: Graph, x: Weighting) -> tuple[float, OpCounts]:
    """MST weight recomputing all distances from scratch every round.

    Same telescoping sum as `mst_puredp`, but each of the n-1 tree edges
    gets a full distance run over the current zeroed weighting, for an
    O(n^4) total.
    """
    _check_weighting(g, x)
    base = _extension_table(g, x)
    terms: list[float] = []
    for eidx in fix_spanning_tree(g).edges:
        d = base.copy()
        _sweep(d)
        u, v = g.edges[eidx]
        terms.append(d[u - 1, v - 1])
        base[u - 1, v - 1] = base[v - 1, u - 1] = 0.0
    return math.fsum(terms), naive_op_counts(g.n, g.m)
