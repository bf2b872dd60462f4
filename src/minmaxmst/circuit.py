"""Straight-line (min,max,+) programs realizing the MST-weight solvers.

A circuit is an ordered list of nodes — input(edge), const 0, min, max, add —
whose operands point at earlier nodes.  Compiling a graph emits the exact
operation sequence of the corresponding solver, so the circuit is a
weight-independent artifact: node counts are the solver's operation counts,
and evaluating the circuit on any weighting reproduces the solver's output.

The compiler runs the solver's own tree walk over a table of node ids and
emits each round as one numpy block of nodes, stored as three arrays in
node order.  It also records how to evaluate the result: groups of nodes
of one kind that do not read each other, and the two chains (the
extension's max-fold and the tree-order add chain) as left folds, so
`evaluate` makes a few numpy calls per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .counting import OpCounts
from .graphs import Graph, GraphError, Weighting, _extension_layout, fix_spanning_tree
from .solver import _naive_schedule, _puredp_schedule

INPUT, CONST, MIN, MAX, ADD = range(5)
KIND_NAMES = ("input", "const", "min", "max", "add")
_UFUNCS = {MIN: np.minimum, MAX: np.maximum, ADD: np.add}
_CHUNK = 1 << 16  # nodes turned into Python objects at a time

Node = tuple  # ("input", edge) | ("const", 0.0) | ("min"|"max"|"add", a, b)


class Block(NamedTuple):
    """One step of a circuit's evaluation schedule: nodes of one kind.

    Plain: node `ids[t]` is `kind(a[t], b[t])` and no operand is in `ids`.
    Fold: the nodes form a chain, `ids[0] = kind(a[0], b[0])` and
    `ids[t] = kind(ids[t-1], b[t])`; `a` holds only the chain's start.
    """

    kind: int
    ids: np.ndarray
    a: np.ndarray
    b: np.ndarray
    fold: bool


@dataclass(frozen=True, eq=False)
class Circuit:
    """Branch-free straight-line program over {input, const 0, min, max, add}.

    `kind` (int8 codes INPUT..ADD), `a` and `b` (int32 operand ids) hold
    the nodes in node order; an input keeps its edge index in `a`.  Nodes
    0..m-1 are the inputs in edge order and node m is the constant 0.
    `blocks` is the evaluation schedule, in an order that respects every
    operand.
    """

    kind: np.ndarray
    a: np.ndarray
    b: np.ndarray
    output: int
    n: int
    m: int
    blocks: tuple[Block, ...]

    @property
    def nodes(self) -> Iterator[Node]:
        """The nodes in node order as tuples, made on demand."""
        for _, kinds, a, b in _chunks(self):
            for k, x, y in zip(kinds, a, b):
                if k == INPUT:
                    yield ("input", x)
                elif k == CONST:
                    yield ("const", 0.0)
                else:
                    yield (KIND_NAMES[k], x, y)


def _chunks(c: Circuit) -> Iterator[tuple[int, list[int], list[int], list[int]]]:
    """(first id, kinds, a, b) as Python lists, a bounded number of nodes at a time."""
    for s in range(0, len(c.kind), _CHUNK):
        e = s + _CHUNK
        yield s, c.kind[s:e].tolist(), c.a[s:e].tolist(), c.b[s:e].tolist()


class _Emitter:
    """Node arrays appended one block at a time, with their evaluation schedule.

    Also the circuit backend of the solver's schedules: `extension`,
    `sweep` and `zero_update` work on an (n, n) table holding the node id
    of each vertex pair's current value, the constant 0 on the diagonal.
    A round's nodes come in the row-major order of the pairs i < j
    (`triu_indices`); `pair` maps both cells of a pair to its position p.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.zero = g.m  # the constant 0 follows the m inputs
        self.size = 0
        self.parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.blocks: list[Block] = []
        self.adds: list[int] = []
        self.terms: list[int] = []
        self.i, self.j = np.triu_indices(g.n, 1)
        self.p = np.arange(len(self.i))
        self.pair = np.zeros((g.n, g.n), dtype=np.intp)
        self.pair[self.i, self.j] = self.pair[self.j, self.i] = self.p

    def emit(self, kind, a, b) -> int:
        """Append the nodes (kind[t], a[t], b[t]); kind may be one code. Returns the first id."""
        a = np.asarray(a, dtype=np.int32)
        kind = np.broadcast_to(np.asarray(kind, dtype=np.int8), a.shape)
        self.parts.append((kind, a, np.asarray(b, dtype=np.int32)))
        base = self.size
        self.size += len(a)
        return base

    def schedule(self, kind: int, ids, a, b, fold: bool = False) -> None:
        if len(ids):
            self.blocks.append(Block(kind, *(np.asarray(v, dtype=np.intp) for v in (ids, a, b)), fold))

    def add(self, term: int) -> None:
        """Next node of the tree-order add chain, which starts at the constant 0."""
        self.adds.append(self.emit(ADD, [self.adds[-1] if self.adds else self.zero], [term]))
        self.terms.append(term)

    def circuit(self) -> Circuit:
        self.schedule(ADD, self.adds, [self.zero], self.terms, fold=True)
        kind, a, b = (np.concatenate(col) for col in zip(*self.parts))
        output = self.adds[-1] if self.adds else self.zero
        return Circuit(kind, a, b, output, self.g.n, self.g.m, tuple(self.blocks))

    def _relabel(self, t: np.ndarray, first: int, stride: int) -> None:
        """Pair p's cells of t become node first + stride*p; the diagonal stays 0."""
        np.add(first, stride * self.pair, out=t)
        t.flat[:: len(t) + 1] = self.zero

    def extension(self) -> np.ndarray:
        """Inputs, const 0 and the max-fold M; returns the extension's id table."""
        m = self.g.m
        self.emit(INPUT, np.arange(m), np.zeros(m))
        self.emit(CONST, [0], [0])
        biggest = 0  # M is input 0 itself when m == 1
        if m > 1:  # M = max(...max(max(x0, x1), x2)..., x_{m-1})
            first = self.emit(MAX, np.r_[0, np.arange(m + 1, 2 * m - 1)], np.arange(1, m))
            self.schedule(MAX, np.arange(first, first + m - 1), [0], np.arange(1, m), fold=True)
            biggest = self.size - 1
        return _extension_layout(self.g, np.arange(m), self.zero, biggest)

    def sweep(self, t: np.ndarray) -> None:
        """The n rounds of the pair recurrence, in place on the id table.

        In round k pair p = (i, j) gets max = base+2p of cells (i,k) and
        (k,j), then min = base+2p+1 of cell (i,j) and that max.  A cell of
        row or column k that an earlier pair rewrote this round, (i,k) with
        k < j or (k,j) with k < i, is read as its new min node.  The
        row/column-k pairs read only old cells, so they are evaluated
        first, then all other pairs.
        """
        i, j = self.i, self.j
        kinds = np.tile(np.array([MAX, MIN], dtype=np.int8), len(i))
        for k in range(len(t)):
            base = self.size
            maxes = base + 2 * self.p
            mins = maxes + 1
            col = base + 1 + 2 * self.pair[k]  # the new ids of row and column k
            col[k] = self.zero
            ta = np.where(k < j, col[i], t[i, k])
            tb = np.where(k < i, col[j], t[k, j])
            old = t[i, j]
            self.emit(kinds, np.stack((ta, old), 1).ravel(), np.stack((tb, maxes), 1).ravel())
            on_k = (i == k) | (j == k)
            for sel in (on_k, ~on_k):
                self.schedule(MAX, maxes[sel], ta[sel], tb[sel])
                self.schedule(MIN, mins[sel], old[sel], maxes[sel])
            self._relabel(t, base + 1, 2)

    def zero_update(self, t: np.ndarray, u: int, v: int) -> None:
        """Zeroing update of the pair {u, v} (0-based), in place on the id table.

        Pair p = (i, j) gets t1 = max(t[i,u], t[j,v]), m1 = min(t[i,j], t1),
        t2 = max(t[i,v], t[j,u]) and m2 = min(m1, t2) at base+4p .. base+4p+3,
        all read from the table as it was before the round.
        """
        i, j = self.i, self.j
        base = self.size
        t1 = base + 4 * self.p
        m1, t2, m2 = t1 + 1, t1 + 2, t1 + 3
        a1, b1, a2, b2, old = t[i, u], t[j, v], t[i, v], t[j, u], t[i, j]
        kinds = np.tile(np.array([MAX, MIN, MAX, MIN], dtype=np.int8), len(i))
        self.emit(kinds, np.stack((a1, old, a2, m1), 1).ravel(), np.stack((b1, t1, b2, t2), 1).ravel())
        self.schedule(MAX, *(np.concatenate(v) for v in ((t1, t2), (a1, a2), (b1, b2))))
        self.schedule(MIN, m1, old, t1)
        self.schedule(MIN, m2, m1, t2)
        self._relabel(t, base + 3, 4)


def compile_mst_circuit(g: Graph) -> Circuit:
    """Straight-line program computing the MST weight of any weighting of g.

    Runs `mst_puredp`'s schedule over node ids: the extension max-fold, n
    rounds of the pair recurrence, n-2 zeroing-update rounds interleaved
    with the tree walk, and the final chain of additions.  Structure
    depends on g alone.
    """
    em = _Emitter(g)
    for _, cell in _puredp_schedule(g, fix_spanning_tree(g).edges, em.extension(), em.sweep, em.zero_update):
        em.add(cell)
    return em.circuit()


def compile_mst_circuit_naive(g: Graph) -> Circuit:
    """Straight-line counterpart of `mst_puredp_naive` (a fresh distance
    computation per tree edge; O(n^4) nodes)."""
    em = _Emitter(g)
    for _, cell in _naive_schedule(g, em.extension(), em.sweep, em.zero):
        em.add(cell)
    return em.circuit()


def evaluate(c: Circuit, x: Weighting | Sequence[float]) -> float:
    """Evaluate the circuit on a weighting with one value per input.

    A plain sequence is checked as a `Weighting`.  The additions run in tree
    order, so the result agrees with `mst_puredp` (an exactly rounded sum)
    to within rounding, exactly on integer weights; like the solvers, it
    raises GraphError past the float range.
    """
    values = (x if isinstance(x, Weighting) else Weighting(x)).values
    if len(values) != c.m:
        raise ValueError(f"circuit expects {c.m} input values, got {len(values)}")
    vals = np.empty(len(c.kind))
    vals[: c.m] = values
    vals[c.m] = 0.0
    for blk in c.blocks:
        op = _UFUNCS[blk.kind]
        if blk.fold:
            try:
                with np.errstate(over="raise"):  # the add chain, a fold, can pass the float range
                    vals[blk.ids] = op.accumulate(np.concatenate((vals[blk.a], vals[blk.b])))[1:]
            except FloatingPointError:
                raise GraphError("MST weight is too large for a 64-bit float") from None
        else:
            vals[blk.ids] = op(vals[blk.a], vals[blk.b])
    return float(vals[c.output])


def count_ops(c: Circuit) -> OpCounts:
    """Tally of min/max/add nodes in the circuit."""
    counts = np.bincount(c.kind, minlength=len(KIND_NAMES)).tolist()
    return OpCounts(counts[MIN], counts[MAX], counts[ADD])


def format_circuit(c: Circuit) -> str:
    """Serialize in the one-node-per-line text format, ids in node order.

    The text is built one chunk of nodes at a time, so no list of all
    lines is ever held.
    """
    parts = []
    for start, kinds, a, b in _chunks(c):
        parts.append("\n".join([
            f"{i} = {KIND_NAMES[k]} {x} {y}" if k > CONST
            else f"{i} = input {x}" if k == INPUT
            else f"{i} = const 0"
            for i, k, x, y in zip(range(start, start + len(kinds)), kinds, a, b)
        ]))
    parts.append(f"output {c.output}\n")
    return "\n".join(parts)
