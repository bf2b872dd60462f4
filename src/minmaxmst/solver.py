"""Branch-free MST-weight solvers built on successive bottleneck distances.

The weight of a minimum spanning tree equals the telescoping sum, over the
edges e_1..e_{n-1} of any fixed spanning tree, of the bottleneck distance of
e_i under the weighting in which e_1..e_{i-1} were already zeroed.  Working
over the complete extension, one full distance computation plus n-2 cheap
zeroing updates gives the weight in O(n^3) (min,max,+) operations; the naive
driver recomputes distances from scratch each round in O(n^4).

Until the final sum the schedule uses only min and max, and both commute
with every non-decreasing map f: f(min(a, b)) = min(f(a), f(b)), and the
same for max.  Ranks are such a map: sort the distinct weights once, with
0 as the lowest level, and replace each weight by its index.  Run on the
ranks, the schedule reads the rank of exactly the value it reads when run
on the weights, so the solvers sweep and update a table of small unsigned
integers and turn only the n-1 terms back into weights, to sum them.

After the sweep at most n levels remain.  Each swept entry off the
diagonal is a bottleneck distance, and every bottleneck distance is the
weight of an MST edge (Hu 1961): the max on the MST path between the two
vertices.  So the swept table holds 0 and at most n-1 MST weights.  A
zeroing update only takes mins and maxes of entries already there, so
it adds no level.  `mst_puredp` therefore re-ranks the swept table to
the levels it holds, in the smallest dtype for index n-1, and runs the
updates on that: on K_256 the sweep runs on uint16 (about 32,000
levels) and the 254 updates on uint8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Iterable, Iterator

import numpy as np

from .distances import _sweep, _zero_update
from .graphs import (
    Graph,
    SpanningTree,
    Weighting,
    _check_weighting,
    _check_work,
    _extension_layout,
    _ranks,
    _weight_sum,
    validate_spanning_tree,
)


@dataclass(frozen=True)
class OpCounts:
    """Immutable record of how many min/max/add operations a run performed."""

    min_count: int
    max_count: int
    add_count: int

    @cached_property
    def total(self) -> int:
        return self.min_count + self.max_count + self.add_count

    def as_dict(self) -> dict[str, int]:
        return {
            "min": self.min_count,
            "max": self.max_count,
            "add": self.add_count,
            "total": self.total,
        }


@dataclass(frozen=True, init=False)
class Decomposition:
    """Per-tree-edge bottleneck terms whose sum is the MST weight.

    The terms are the MST's edge weights in some order, so `total` is their
    exactly rounded sum (`math.fsum`), the same for every tree and order.
    A sum past the float range raises GraphError.
    """

    terms: tuple[tuple[int, float], ...]
    total: float

    def __init__(self, terms: Iterable[tuple[int, float]]):
        terms = tuple((int(e), float(d)) for e, d in terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "total", _weight_sum(d for _, d in terms))


def _puredp_schedule(ends: np.ndarray, d, zero_update) -> Iterator[Any]:
    """The walk over the swept extension table d, yielding the cell of each tree edge as a Python scalar.

    `ends` is a (2, n-1) array of the tree edges' 0-based ends in walk
    order.  Along it, read the edge's cell, then run the round that zeroes
    it: the pure DP's update, or the naive DP's `_resweep`; no round
    follows the last edge.  The caller's work on each yielded cell happens
    before the next round.  The solvers run it over weight ranks, the
    circuit compilers over a table of evaluation slots; each sweeps d with
    its own sweep first.
    """
    us, vs = ends.tolist()
    last = len(us) - 1
    for pos, (u, v) in enumerate(zip(us, vs)):
        yield d.item(u, v)
        if pos < last:
            zero_update(d, u, v)


def _resweep(base, sweep, zero, d, u: int, v: int) -> None:
    """The naive round: pair {u, v} of the unswept table `base` set to `zero`, then d a fresh sweep of base."""
    base[u, v] = base[v, u] = zero
    d[...] = base
    sweep(d)


def mst_decomposition(g: Graph, x: Weighting, t: SpanningTree) -> Decomposition:
    """Bottleneck-distance terms of x along the tree t, and their sum.

    Term i is the min-max distance of tree edge e_i over the complete
    extension of the weighting with e_1..e_{i-1} zeroed.  The total equals
    the MST weight of (g, x) for every spanning tree and edge order.
    """
    _check_weighting(g, x)
    _check_work(g.n, puredp_op_counts(g.n, g.m).total)
    validate_spanning_tree(g, t)
    levels, cells = _ranked_walk(g, x, g._ends[:, t.edges])
    return Decomposition(zip(t.edges, levels[cells].tolist()))


def _rank_table(g: Graph, x: Weighting) -> tuple[np.ndarray, np.ndarray]:
    """The complete extension on weight ranks: (levels, table).

    `levels` holds 0 and the distinct weights in ascending order, so the
    diagonal is level 0 and the non-edges are the top level, the maximum
    weight M.  `table` lays the extension out with each entry's index into
    `levels`, in the smallest unsigned dtype that holds the top index.
    Every entry of the extension is a level, so `levels[table]` is its
    weight table.
    """
    levels, ranks = _ranks(np.concatenate(([0.0], x.array)))
    levels[0] = 0.0  # +0.0 even when a -0.0 weight sorted first
    return levels, _extension_layout(g, ranks[1:], 0, len(levels) - 1)


def _rerank_swept(levels: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A swept (n, n) rank table re-ranked to the levels it still holds, when n levels fit a narrower dtype.

    At most n levels remain after the sweep (see the module docstring), so
    index n-1 is the top rank.  A table already that narrow comes back as
    it is.  Otherwise the kept levels and a new table of ranks into them
    are returned; the ranks keep their order, so min and max read the same levels.
    """
    dtype = np.min_scalar_type(len(table) - 1)
    if dtype.itemsize >= table.dtype.itemsize:
        return levels, table
    present = np.zeros(len(levels), dtype=bool)
    present[table] = True
    kept = np.flatnonzero(present)  # level 0, on the diagonal, keeps rank 0
    lut = np.zeros(len(levels), dtype)
    lut[kept] = np.arange(len(kept))
    return levels[kept], lut[table]  # a narrow lut: the lookup allocates only the new table


def _ranked_walk(g: Graph, x: Weighting, ends: np.ndarray) -> tuple[np.ndarray, list]:
    """The pure DP's walk along `ends` over the rank table: the levels, and the walk's cells as ranks into them.

    The swept table is re-ranked to the at most n levels it still holds, so
    the updates may walk a narrower table; rebinding `table` frees the wide one.
    """
    levels, table = _rank_table(g, x)
    _sweep(table)
    levels, table = _rerank_swept(levels, table)
    return levels, list(_puredp_schedule(ends, table, _zero_update))


def _op_counts(n: int, m: int, sweeps: int, rounds: int) -> OpCounts:
    """Closed-form tally of `sweeps` full distance runs and `rounds` zeroing update rounds on K_n.

    Each relaxes every pair n times or twice, with one min and one max; the
    extension's max fold adds m-1 maxes and the tree-order sum n-1 adds.
    """
    pairs = n * (n - 1) // 2
    relax = (sweeps * n + 2 * rounds) * pairs
    return OpCounts(min_count=relax, max_count=max(m - 1, 0) + relax, add_count=max(n - 1, 0))


def puredp_op_counts(n: int, m: int) -> OpCounts:
    """Closed-form operation tally of `mst_puredp`: one sweep, then n-2 update rounds."""
    return _op_counts(n, m, 1, n - 2)


def naive_op_counts(n: int, m: int) -> OpCounts:
    """Closed-form operation tally of `mst_puredp_naive`: one sweep, then n-2 re-sweep rounds."""
    return _op_counts(n, m, n - 1, 0)


def mst_puredp(g: Graph, x: Weighting) -> tuple[float, OpCounts]:
    """MST weight by one distance run plus incremental zeroing updates.

    Extends to the complete graph, computes all min-max distances once,
    then walks the fixed spanning tree: read the current distance of the
    tree edge, add it to the accumulator, zero the edge and update the
    matrix in O(n^2) (the update after the last edge is skipped).  It
    runs on weight ranks, which gives the same terms, and the updates run
    on the swept table re-ranked to the at most n levels it holds: 0 and
    MST weights (see the module docstring).  The operation sequence
    depends only on the graph, never on the weights, so the counts
    returned are the schedule's closed form; `count_ops` of the compiled
    circuit tallies the same schedule op by op.  The counts include the
    extension's m-1 max fold, which the circuit performs; the solver
    reads M off the sorted weights instead.  A schedule whose count
    passes `graphs._WORK_OPS` is refused before anything is allocated or
    the tree is built; the tree's ends are kept on the graph, as `_walk`.
    """
    _check_weighting(g, x)
    ops = puredp_op_counts(g.n, g.m)
    _check_work(g.n, ops.total)
    levels, cells = _ranked_walk(g, x, g._walk)
    return _weight_sum(levels[cells].tolist()), ops


def mst_puredp_naive(g: Graph, x: Weighting) -> tuple[float, OpCounts]:
    """MST weight recomputing all distances from scratch every round.

    Same telescoping sum and walk as `mst_puredp`, but each of the n-1
    tree edges gets a full distance run over the current zeroed
    weighting, for an O(n^4) total.
    """
    _check_weighting(g, x)
    ops = naive_op_counts(g.n, g.m)
    _check_work(g.n, ops.total)
    levels, base = _rank_table(g, x)
    d = base.copy()
    _sweep(d)
    cells = list(_puredp_schedule(g._walk, d, partial(_resweep, base, _sweep, 0)))
    return _weight_sum(levels[cells].tolist()), ops
