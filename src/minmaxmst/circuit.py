"""Straight-line (min,max,+) programs realizing the MST-weight solvers.

A circuit is an ordered list of nodes — input(edge), const 0, min, max, add —
whose operands point at earlier nodes.  Compiling a graph emits the exact
operation sequence of the corresponding solver, so the circuit is a
weight-independent artifact: node counts are the solver's operation counts,
and evaluating the circuit on any weighting reproduces the solver's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .counting import OpCounts
from .graphs import Graph, Weighting, fix_spanning_tree

INPUT = "input"
CONST = "const"
MIN = "min"
MAX = "max"
ADD = "add"

Node = tuple  # (INPUT, edge) | (CONST, 0.0) | (MIN|MAX|ADD, a, b)


@dataclass(frozen=True)
class Circuit:
    """Branch-free straight-line program over {input, const 0, min, max, add}."""

    nodes: tuple[Node, ...]
    output: int
    n: int
    m: int


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._zero: int | None = None

    def emit(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def input(self, edge: int) -> int:
        return self.emit((INPUT, edge))

    def const_zero(self) -> int:
        if self._zero is None:
            self._zero = self.emit((CONST, 0.0))
        return self._zero

    def min(self, a: int, b: int) -> int:
        return self.emit((MIN, a, b))

    def max(self, a: int, b: int) -> int:
        return self.emit((MAX, a, b))

    def add(self, a: int, b: int) -> int:
        return self.emit((ADD, a, b))


def _extension_cells(g: Graph, b: _Builder) -> list[list[int]]:
    """Node-id matrix of the complete extension: inputs, max-fold M, zero diagonal."""
    inputs = [b.input(e) for e in range(g.m)]
    zero = b.const_zero()
    if g.m == 0:
        return [[zero]]
    biggest = inputs[0]
    for e in range(1, g.m):
        biggest = b.max(biggest, inputs[e])
    cells = [[biggest] * g.n for _ in range(g.n)]
    for i in range(g.n):
        cells[i][i] = zero
    for e, (u, v) in enumerate(g.edges):
        cells[u - 1][v - 1] = inputs[e]
        cells[v - 1][u - 1] = inputs[e]
    return cells


def _fw_cells(cells: list[list[int]], b: _Builder) -> None:
    n = len(cells)
    for k in range(n):
        for i in range(n - 1):
            for j in range(i + 1, n):
                t = b.max(cells[i][k], cells[k][j])
                new = b.min(cells[i][j], t)
                cells[i][j] = new
                cells[j][i] = new


def _zero_update_cells(cells: list[list[int]], a0: int, b0: int, b: _Builder) -> None:
    n = len(cells)
    ca = [cells[i][a0] for i in range(n)]
    cb = [cells[i][b0] for i in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            t1 = b.max(ca[i], cb[j])
            m1 = b.min(cells[i][j], t1)
            t2 = b.max(cb[i], ca[j])
            m2 = b.min(m1, t2)
            cells[i][j] = m2
            cells[j][i] = m2


def compile_mst_circuit(g: Graph) -> Circuit:
    """Straight-line program computing the MST weight of any weighting of g.

    Mirrors `mst_puredp` op for op: the extension max-fold, n rounds of the
    pair recurrence, n-2 zeroing-update rounds interleaved with the tree
    walk, and the final chain of additions.  Structure depends on g alone.
    """
    b = _Builder()
    cells = _extension_cells(g, b)
    _fw_cells(cells, b)
    tree = fix_spanning_tree(g).edges
    acc = b.const_zero()
    last = len(tree) - 1
    for pos, eidx in enumerate(tree):
        u, v = g.edges[eidx]
        acc = b.add(acc, cells[u - 1][v - 1])
        if pos < last:
            _zero_update_cells(cells, u - 1, v - 1, b)
    return Circuit(tuple(b.nodes), acc, g.n, g.m)


def compile_mst_circuit_naive(g: Graph) -> Circuit:
    """Straight-line counterpart of `mst_puredp_naive` (a fresh distance
    computation per tree edge; O(n^4) nodes)."""
    b = _Builder()
    base = _extension_cells(g, b)
    tree = fix_spanning_tree(g).edges
    acc = b.const_zero()
    zero = b.const_zero()
    for eidx in tree:
        cells = [row[:] for row in base]
        _fw_cells(cells, b)
        u, v = g.edges[eidx]
        acc = b.add(acc, cells[u - 1][v - 1])
        base[u - 1][v - 1] = zero
        base[v - 1][u - 1] = zero
    return Circuit(tuple(b.nodes), acc, g.n, g.m)


def evaluate(c: Circuit, x: Weighting | Sequence[float]) -> float:
    """Forward-evaluate the circuit on a weighting with one value per input.

    The final additions run in tree order, so on non-integer weights the
    result agrees with `mst_puredp` (an exactly rounded sum) only to within
    rounding; on integer weights the two are equal.
    """
    values = x.values if isinstance(x, Weighting) else tuple(float(w) for w in x)
    if len(values) != c.m:
        raise ValueError(f"circuit expects {c.m} input values, got {len(values)}")
    vals = [0.0] * len(c.nodes)
    for i, node in enumerate(c.nodes):
        kind = node[0]
        if kind == MIN:
            a, bb = vals[node[1]], vals[node[2]]
            vals[i] = a if a <= bb else bb
        elif kind == MAX:
            a, bb = vals[node[1]], vals[node[2]]
            vals[i] = a if a >= bb else bb
        elif kind == ADD:
            vals[i] = vals[node[1]] + vals[node[2]]
        elif kind == INPUT:
            vals[i] = values[node[1]]
        else:  # CONST
            vals[i] = node[1]
    return vals[c.output]


def count_ops(c: Circuit) -> OpCounts:
    """Tally of min/max/add nodes in the circuit."""
    counts = {MIN: 0, MAX: 0, ADD: 0}
    for node in c.nodes:
        kind = node[0]
        if kind in counts:
            counts[kind] += 1
    return OpCounts(counts[MIN], counts[MAX], counts[ADD])


def format_circuit(c: Circuit) -> str:
    """Serialize in the one-node-per-line text format, ids in node order."""
    lines = []
    for i, node in enumerate(c.nodes):
        kind = node[0]
        if kind == INPUT:
            lines.append(f"{i} = input {node[1]}")
        elif kind == CONST:
            lines.append(f"{i} = const 0")
        else:
            lines.append(f"{i} = {kind} {node[1]} {node[2]}")
    lines.append(f"output {c.output}\n")
    return "\n".join(lines)
