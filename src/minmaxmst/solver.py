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
from typing import Any, Iterable, Iterator

from .distances import _sweep, _zero_update
from .graphs import (
    Graph,
    SpanningTree,
    Weighting,
    _check_weighting,
    _rank_table,
    _rerank_swept,
    _weight_sum,
    fix_spanning_tree,
    validate_spanning_tree,
)


@dataclass(frozen=True)
class OpCounts:
    """Immutable record of how many min/max/add operations a run performed."""

    min_count: int
    max_count: int
    add_count: int

    @property
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


def _puredp_schedule(g: Graph, order, d, zero_update) -> Iterator[tuple[int, Any]]:
    """The pure DP's walk over the swept extension table d, yielding (edge, cell) per tree edge.

    Along `order`, read the tree edge's cell and zero it by an update
    round; no update follows the last edge.  The caller's work on each
    yielded cell happens before the next round.  The solvers run it over
    weight ranks, the circuit compiler over a table of evaluation slots;
    each sweeps d with its own sweep first.
    """
    last = len(order) - 1
    for pos, (eidx, (u, v)) in enumerate(zip(order, g._ends[:, order].T.tolist())):
        yield eidx, d[u, v]
        if pos < last:
            zero_update(d, u, v)


def _naive_schedule(g: Graph, d, sweep, zero) -> Iterator[tuple[int, Any]]:
    """The naive walk: a fresh sweep of a copy of d per tree edge, then the edge's cell of d set to `zero`."""
    order = fix_spanning_tree(g).edges
    for eidx, (u, v) in zip(order, g._ends[:, order].T.tolist()):
        fresh = d.copy()
        sweep(fresh)
        yield eidx, fresh[u, v]
        d[u, v] = d[v, u] = zero


def mst_decomposition(g: Graph, x: Weighting, t: SpanningTree) -> Decomposition:
    """Bottleneck-distance terms of x along the tree t, and their sum.

    Term i is the min-max distance of tree edge e_i over the complete
    extension of the weighting with e_1..e_{i-1} zeroed.  The total equals
    the MST weight of (g, x) for every spanning tree and edge order.
    """
    _check_weighting(g, x)
    validate_spanning_tree(g, t)
    return _decompose(g, x, t.edges)


def _decompose(g: Graph, x: Weighting, order) -> Decomposition:
    """The pure DP's walk along `order` over the rank table, its cells read back as weights.

    The swept table is re-ranked to the at most n levels it still holds, so
    the updates may walk a narrower table; rebinding `table` frees the wide one.
    """
    levels, table = _rank_table(g, x)
    _sweep(table)
    levels, table = _rerank_swept(levels, table)
    return Decomposition((e, levels[r]) for e, r in _puredp_schedule(g, order, table, _zero_update))


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
    """Closed-form operation tally of `mst_puredp_naive`: a sweep per tree edge."""
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
    reads M off the sorted weights instead.
    """
    _check_weighting(g, x)
    return _decompose(g, x, fix_spanning_tree(g).edges).total, puredp_op_counts(g.n, g.m)


def mst_puredp_naive(g: Graph, x: Weighting) -> tuple[float, OpCounts]:
    """MST weight recomputing all distances from scratch every round.

    Same telescoping sum as `mst_puredp`, but each of the n-1 tree edges
    gets a full distance run over the current zeroed weighting, for an
    O(n^4) total.
    """
    _check_weighting(g, x)
    levels, d = _rank_table(g, x)
    terms = _naive_schedule(g, d, _sweep, 0)
    return _weight_sum(levels[r] for _, r in terms), naive_op_counts(g.n, g.m)
