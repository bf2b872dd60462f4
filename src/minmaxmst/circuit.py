"""Straight-line (min,max,+) programs realizing the MST-weight solvers.

A circuit is an ordered list of nodes — input(edge), const 0, min, max, add —
whose operands point at earlier nodes.  Compiling a graph emits the exact
operation sequence of the corresponding solver, so the circuit is a
weight-independent artifact: node counts are the solver's operation counts,
and evaluating the circuit on any weighting reproduces the solver's output.

The compilers run the solvers' own tree walk over a table of evaluation
slots and writes each round once, as its evaluation schedule: blocks of
nodes of one kind that do not read each other, and the two chains (the
extension's max-fold and the tree-order add chain) as left folds.  Slots
number the values in block order, so each block writes one contiguous
range and `evaluate` makes a few numpy calls per round with no scatter;
an operand that is one ascending run of slots is stored as a slice.  Node
ids, the numbering of the text format, stay with the blocks: the
node-order view (`Circuit.nodes`, the text format) is scattered from the
blocks when it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import Graph, GraphError, Weighting, _check_bytes, _extension_layout, _weight_sum
from .solver import OpCounts, _puredp_schedule, _resweep, naive_op_counts, puredp_op_counts

INPUT, CONST, MIN, MAX, ADD = range(5)
KIND_NAMES = ("input", "const", "min", "max", "add")
_UFUNCS = {MIN: np.minimum, MAX: np.maximum, ADD: np.add}
_CHUNK = 1 << 16  # nodes turned into Python objects at a time
_NODE_BYTES = 3 * np.dtype(np.intp).itemsize  # at most a node's id and operands in its block

Node = tuple  # ("input", edge) | ("const", 0.0) | ("min"|"max"|"add", a, b)


class Block(NamedTuple):
    """One step of a circuit's evaluation schedule: nodes of one kind.

    A block owns the next `len(ids)` evaluation slots after the blocks
    before it; `ids` are its nodes' ids, in slot order, and `a` and `b`
    are slots, each an index array or, where the compiler wrote a run of
    consecutive slots, a slice.
    Plain: the node in the block's slot s + t is `kind(a[t], b[t])`, and
    every operand lies below s.  Fold: the nodes form a chain, slot
    s = `kind(a[0], b[0])` and slot s + t = `kind(slot s+t-1, b[t])`; `a`
    is an array holding only the chain's start.
    """

    kind: int
    ids: np.ndarray
    a: np.ndarray | slice
    b: np.ndarray | slice
    fold: bool


@dataclass(frozen=True, eq=False)
class Circuit:
    """Branch-free straight-line program over {input, const 0, min, max, add}.

    Nodes 0..m-1 are the inputs in edge order and node m is the constant 0;
    they are also evaluation slots 0..m.  Every other node, up to
    `size - 1`, is in exactly one of `blocks`, the evaluation schedule, in
    an order that respects every operand; the blocks' slot ranges tile
    [m+1, size) in block order.  `output` is a node id.
    """

    size: int
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

    @cached_property
    def _output_slot(self) -> int:
        """The evaluation slot of node `output`, found once per circuit."""
        if not 0 <= self.output < self.size:
            raise ValueError(f"output {self.output} is not a node id of this {self.size}-node circuit")
        return int(np.flatnonzero(_slot_nodes(self) == self.output)[0])


def _slot_nodes(c: Circuit) -> np.ndarray:
    """The node id held in each evaluation slot."""
    return np.concatenate([np.arange(c.m + 1)] + [blk.ids for blk in c.blocks])


def _chunks(c: Circuit) -> Iterator[tuple[int, list[int], list[int], list[int]]]:
    """(first id, kinds, a, b) in node order as Python lists, a bounded number of nodes at a time.

    The blocks are scattered into node order once per call, their operand
    slots turned into node ids through one slot→node map.  An input keeps
    its edge index in `a`; a fold's `a` is its start, then its ids but the last.
    """
    node = _slot_nodes(c)
    kind = np.full(c.size, CONST, dtype=np.int8)
    a, b = np.zeros((2, c.size), dtype=np.intp)
    kind[: c.m] = INPUT
    a[: c.m] = np.arange(c.m)
    for blk in c.blocks:
        kind[blk.ids] = blk.kind
        a[blk.ids] = np.concatenate((node[blk.a], blk.ids[:-1])) if blk.fold else node[blk.a]
        b[blk.ids] = node[blk.b]
    del node
    for s in range(0, c.size, _CHUNK):
        e = s + _CHUNK
        yield s, kind[s:e].tolist(), a[s:e].tolist(), b[s:e].tolist()


class _Emitter:
    """A circuit's blocks, written one round at a time.

    The circuit backend of the solvers' walk: `extension`, `sweep` and
    `zero_update` work on an (n, n) table holding the slot of each vertex
    pair's current value, the constant 0 on the diagonal.  A round takes
    its node ids from `reserve`, in the row-major order of the pairs i < j
    (`triu_indices`), and its slots from `schedule`, block after block; it
    describes its nodes only by the blocks it schedules.  `pair` maps both
    cells of a pair to its position p.  The table is symmetric, so a round
    reads column k as row k.  The walk writes the table only through
    these rounds, bar the naive round's copy, which a sweep follows; so
    after an update round its pairs are the run `run`, and a sweep forgets it.
    """

    def __init__(self, g: Graph, ops: OpCounts) -> None:
        nodes = g.m + 1 + ops.total  # GraphError, before anything is allocated, past the byte budget
        _check_bytes(g.n, nodes * _NODE_BYTES, f"circuit of {nodes:,} nodes")
        self.g = g
        self.zero = g.m  # the constant 0 follows the m inputs, as node and as slot
        self.size = g.m + 1  # nodes reserved
        self.slots = g.m + 1  # slots scheduled
        self.blocks: list[Block] = []
        self.i, self.j = np.triu_indices(g.n, 1)
        self.p = np.arange(len(self.i))
        self.pair = np.zeros((g.n, g.n), dtype=np.intp)
        self.pair[self.i, self.j] = self.pair[self.j, self.i] = self.p
        self.cell = self.i * g.n + self.j  # pair p's cell (i, j) in the flattened table
        self.run: slice | None = None  # the table's pair p is at slot run[p], where an update round left it

    def reserve(self, count: int) -> int:
        """The ids of the next `count` nodes; returns the first."""
        base = self.size
        self.size += count
        return base

    def schedule(self, kind: int, ids, a, b, fold: bool = False) -> int:
        """Append a block, which takes the next len(ids) slots; returns the first."""
        first = self.slots
        if len(ids):
            self.blocks.append(Block(kind, *(v if isinstance(v, slice) else np.asarray(v, dtype=np.intp)
                                             for v in (ids, a, b)), fold))
            self.slots += len(ids)
        return first

    def circuit(self, walk: Iterator[int]) -> Circuit:
        """The circuit ending in the add chain from the constant 0 over the walk's cells, in walk order."""
        adds, terms = [], []
        for cell in walk:
            adds.append(self.reserve(1))
            terms.append(cell)
        self.schedule(ADD, adds, [self.zero], terms, fold=True)
        output = adds[-1] if adds else self.zero
        return Circuit(self.size, output, self.g.n, self.g.m, tuple(self.blocks))

    def _relabel(self, t: np.ndarray, slots: np.ndarray) -> None:
        """Pair p's cells of t become slots[p]; the diagonal stays 0."""
        np.take(slots, self.pair, out=t)
        t.flat[:: len(t) + 1] = self.zero

    def extension(self) -> np.ndarray:
        """The max-fold M over the inputs; returns the extension's slot table."""
        m = self.g.m
        biggest = 0  # M is input 0 itself when m == 1
        if m > 1:  # M = max(...max(max(x0, x1), x2)..., x_{m-1})
            first = self.reserve(m - 1)
            biggest = self.schedule(MAX, np.arange(first, self.size), [0], np.arange(1, m), fold=True) + m - 2
        return _extension_layout(self.g, np.arange(m), self.zero, biggest)

    def sweep(self, t: np.ndarray) -> np.ndarray:
        """The n rounds of the pair recurrence, in place on the slot table; returns t.

        In round k pair p = (i, j) gets node max = base+2p of cells (i,k)
        and (k,j), then node min = base+2p+1 of cell (i,j) and that max.  A
        cell of row or column k that an earlier pair rewrote this round,
        (i,k) with k < j or (k,j) with k < i, is read as its new min.  The
        row/column-k pairs read only old cells, so they are evaluated
        first, then all other pairs: four blocks, whose slots are the
        row/column-k maxes, their mins, the other maxes, their mins.
        """
        self.run = None
        i, j, npairs = self.i, self.j, len(self.i)
        if not npairs:  # one vertex: its rounds have no nodes
            return t
        ids = 2 * self.p
        mins = np.empty(npairs, dtype=np.intp)
        for k in range(len(t)):
            base = self.reserve(2 * npairs)
            on_k = np.delete(self.pair[k], k)  # ascending, as pair[k] is
            rest = np.delete(self.p, on_k)
            s, nk = self.slots, len(on_k)
            mins[on_k] = np.arange(s + nk, s + 2 * nk)
            mins[rest] = np.arange(s + nk + npairs, s + 2 * npairs)
            row = t[k]  # the old slots of row and column k
            col = mins[self.pair[k]]  # their new slots
            col[k] = self.zero
            for sel in (on_k, rest):
                ii, jj = i[sel], j[sel]
                ta = np.where(k < jj, col[ii], row[ii])
                tb = np.where(k < ii, col[jj], row[jj])
                maxes = base + ids[sel]
                first = self.schedule(MAX, maxes, ta, tb)
                self.schedule(MIN, maxes + 1, t.take(self.cell[sel]), slice(first, first + len(sel)))
            self._relabel(t, mins)
        return t

    def zero_update(self, t: np.ndarray, u: int, v: int) -> None:
        """Zeroing update of the pair {u, v} (0-based), in place on the slot table.

        Pair p = (i, j) gets nodes t1 = max(t[i,u], t[j,v]), m1 = min(t[i,j], t1),
        t2 = max(t[i,v], t[j,u]) and m2 = min(m1, t2) at base+4p .. base+4p+3,
        all read from the table as it was before the round, in three
        blocks: both maxes, the m1s, the m2s.  So t1, t2 and m1 are runs
        of slots, and so is the table's pair order after the round.
        """
        i, j, npairs = self.i, self.j, len(self.i)
        t1 = self.reserve(4 * npairs) + 4 * self.p
        tu, tv = t[u], t[v]
        old = t.take(self.cell) if self.run is None else self.run
        a, b = np.concatenate((tu[i], tv[i])), np.concatenate((tv[j], tu[j]))
        s = self.schedule(MAX, np.concatenate((t1, t1 + 2)), a, b)
        m1 = self.schedule(MIN, t1 + 1, old, slice(s, s + npairs))
        m2 = self.schedule(MIN, t1 + 3, slice(m1, m1 + npairs), slice(s + npairs, s + 2 * npairs))
        self._relabel(t, np.arange(m2, m2 + npairs))
        self.run = slice(m2, m2 + npairs)


def compile_mst_circuit(g: Graph) -> Circuit:
    """Straight-line program computing the MST weight of any weighting of g.

    Runs `mst_puredp`'s schedule over evaluation slots: the extension
    max-fold, n rounds of the pair recurrence, n-2 zeroing-update rounds
    interleaved with the tree walk, and the final chain of additions.
    Structure depends on g alone.  A graph whose circuit would pass the byte budget
    of `graphs._TABLE_BYTES` raises GraphError before anything is built.
    """
    em = _Emitter(g, puredp_op_counts(g.n, g.m))
    return em.circuit(_puredp_schedule(g._walk, em.sweep(em.extension()), em.zero_update))


def compile_mst_circuit_naive(g: Graph) -> Circuit:
    """Straight-line counterpart of `mst_puredp_naive` (a fresh distance
    computation per tree edge; O(n^4) nodes), under the same byte budget."""
    em = _Emitter(g, naive_op_counts(g.n, g.m))
    base = em.extension()
    return em.circuit(_puredp_schedule(g._walk, em.sweep(base.copy()),
                                       partial(_resweep, base, em.sweep, em.zero)))


def evaluate(c: Circuit, x: Weighting | Sequence[float]) -> float:
    """Evaluate the circuit on a weighting with one value per input.

    A plain sequence is checked as a `Weighting`.  One float64 array holds
    a value per slot; each block writes its own range of it, so a plain
    block is one ufunc call into that range.  An add chain's last node
    gets the exactly rounded sum (`math.fsum`) of the chain's operands, so
    the output equals the solvers' exactly rounded sum on any weights; its
    earlier nodes keep their tree-order float adds.  Like the solvers, it
    raises GraphError past the float range.  An `output` that is no node
    id of the circuit raises ValueError.
    """
    values = (x if isinstance(x, Weighting) else Weighting(x)).array
    if len(values) != c.m:
        raise ValueError(f"circuit expects {c.m} input values, got {len(values)}")
    out = c._output_slot
    vals = np.empty(c.size)
    vals[: c.m] = values
    vals[c.m] = 0.0
    s = c.m + 1
    for blk in c.blocks:
        e = s + len(blk.ids)
        op = _UFUNCS[blk.kind]
        if blk.fold:
            operands = np.concatenate((vals[blk.a], vals[blk.b]))
            try:
                with np.errstate(over="raise"):  # the add chain, a fold, can pass the float range
                    vals[s:e] = op.accumulate(operands)[1:]
            except FloatingPointError:
                raise GraphError("MST weight is too large for a 64-bit float") from None
            if blk.kind == ADD:  # the chain's value: its operands' exactly rounded sum, as the solvers return
                vals[e - 1] = _weight_sum(operands.tolist())
        else:
            op(vals[blk.a], vals[blk.b], out=vals[s:e])
        s = e
    return float(vals[out])


def count_ops(c: Circuit) -> OpCounts:
    """Tally of min/max/add nodes in the circuit, read off its block lengths."""
    counts = [0] * len(KIND_NAMES)
    for blk in c.blocks:
        counts[blk.kind] += len(blk.ids)
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
