"""Undirected simple graphs, edge weightings and their complete-graph extension.

Vertices are numbered 1..n.  Edges carry a stable index given by their
position in the edge list (file order for parsed graphs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph structure (self-loop, duplicate edge, disconnected, ...).

    A fault of one edge keeps the bare reason in `args[0]` and the edge's index in `edge`.
    """

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge

    def __str__(self) -> str:
        return self.args[0] if self.edge is None else f"{self.args[0]} at edge index {self.edge}"


class ParseError(GraphError):
    """Malformed edge-list input; message carries the offending line number."""


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Graph:
    """Connected undirected simple graph on vertices 1..n.

    Its edges are kept once, as `_ends`: a read-only (2, m) array of 0-based
    ends, in the smallest unsigned dtype that holds n-1.
    """

    n: int
    _ends: np.ndarray

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError("vertex count must be >= 1")
        pairs: dict[tuple[int, int], None] = {}  # insertion-ordered: the edge list
        for i, (u, v) in enumerate(edges):
            if u > v:
                u, v = v, u
            if u == v:
                raise GraphError("self-loop", i)
            if u < 1 or v > n:
                raise GraphError("vertex id out of range", i)
            if (u, v) in pairs:
                raise GraphError("duplicate edge", i)
            pairs[u, v] = None
        merges = 0
        if len(pairs) >= n - 1:  # fewer edges cannot connect n vertices: build nothing of size n for them
            uf = _UnionFind(n)
            for u, v in pairs:
                if merges < n - 1:  # n-1 merges already connect every vertex
                    merges += uf.union(u, v)
        if merges < n - 1:
            raise GraphError("disconnected graph")
        ends = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs)) - 1
        ends = ends.astype(np.min_scalar_type(n - 1)).reshape(len(pairs), 2).T.copy()
        ends.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_ends", ends)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._ends, other._ends)

    def __hash__(self) -> int:
        return hash((self.n, self._ends.tobytes()))  # equal graphs share n, so their ends share a dtype

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges})"

    @cached_property
    def _tree(self) -> SpanningTree:
        """fix_spanning_tree's tree, kept on the graph so it lives as long as the graph."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]  # (neighbour, edge index)
        for i, (u, v) in enumerate(self._ends.T.tolist()):
            adj[u].append((v, i))
            adj[v].append((u, i))
        visited = [False] * self.n
        visited[0] = True
        order: list[int] = []
        stack = [iter(sorted(adj[0]))]
        while stack:
            for v, i in stack[-1]:
                if not visited[v]:
                    visited[v] = True
                    order.append(i)
                    stack.append(iter(sorted(adj[v])))
                    break
            else:
                stack.pop()
        return SpanningTree(order)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as 1-based pairs (u, v) with u < v, by edge index; built on each call."""
        return tuple(zip(*(self._ends.astype(np.intp) + 1).tolist()))

    @property
    def m(self) -> int:
        return self._ends.shape[1]

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists in ascending vertex order; entry 0 is unused."""
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Maps the normalized vertex pair of each edge to its index."""
        return {e: i for i, e in enumerate(self.edges)}


def complete_graph(n: int) -> Graph:
    """K_n with edges in lexicographic pair order."""
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Weighting:
    """One nonnegative weight per edge index of a host graph.

    The weights are kept only as `array`, a read-only float64 array, the
    form the solvers read; `values` gives them as a tuple of floats.
    """

    array: np.ndarray

    def __init__(self, values: Iterable[float]):
        arr = np.fromiter(map(float, values), float)
        if not (arr.min(initial=0.0) >= 0 and arr.max(initial=0.0) < math.inf):  # NaN fails both
            i = int(np.argmax(~(arr >= 0) | (arr == math.inf)))  # the first faulty weight
            raise GraphError("negative weight" if not arr[i] >= 0 else "non-finite weight", i)
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Weighting):
            return NotImplemented
        return np.array_equal(self.array, other.array)  # -0.0 == 0.0

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Weighting(values={self.values})"

    @property
    def values(self) -> tuple[float, ...]:
        """The weights as a tuple of floats; built on each call."""
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i: int) -> float:
        return float(self.array[i])


@dataclass(frozen=True, init=False)
class SpanningTree:
    """Ordered list of n-1 edge indices of a host graph."""

    edges: tuple[int, ...]

    def __init__(self, edges: Iterable[int]):
        object.__setattr__(self, "edges", tuple(int(e) for e in edges))

    def __len__(self) -> int:
        return len(self.edges)


def _weight_sum(weights: Iterable[float]) -> float:
    """Exactly rounded sum of weights (`math.fsum`); GraphError when it passes the float range."""
    try:
        return math.fsum(weights)
    except OverflowError:  # finite weights can sum past 1.8e308
        raise GraphError("MST weight is too large for a 64-bit float") from None


def _check_weighting(g: Graph, x: Weighting) -> None:
    if len(x) != g.m:
        raise GraphError(f"weighting has {len(x)} values for a graph with {g.m} edges")


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[ru] = rv
        return True


def validate_spanning_tree(g: Graph, t: SpanningTree) -> None:
    """Raise GraphError unless t's edge indices form a spanning tree of g."""
    if len(t.edges) != g.n - 1:
        raise GraphError(f"spanning tree needs {g.n - 1} edges, got {len(t.edges)}")
    if len(set(t.edges)) != len(t.edges):
        raise GraphError("spanning tree repeats an edge index")
    for idx in t.edges:
        if not 0 <= idx < g.m:
            raise GraphError(f"edge index {idx} out of range")
    uf = _UnionFind(g.n)
    for u, v in g._ends[:, t.edges].T.tolist():
        if not uf.union(u, v):
            raise GraphError("spanning tree contains a cycle")
    # n-1 acyclic edges on n vertices necessarily span


def fix_spanning_tree(g: Graph) -> SpanningTree:
    """Deterministic spanning tree of g, independent of any weighting.

    Depth-first search from vertex 1 exploring neighbors in ascending
    order; tree edges in discovery order.  Kept on g, freed with it.
    """
    return g._tree


def _check_square_symmetric(values: np.ndarray) -> None:
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise GraphError(f"expected a square matrix, got shape {values.shape}")
    if np.any(np.diagonal(values) != 0):
        raise GraphError("matrix diagonal must be zero")
    if not np.array_equal(values, values.T, equal_nan=True):
        raise GraphError("matrix must be symmetric")
    if not np.all(values >= 0):  # NaN is not nonnegative, as in a Weighting
        raise GraphError("matrix entries must be nonnegative")


@dataclass(frozen=True, eq=False, init=False)
class ExtendedWeighting:
    """Read-only symmetric n x n table over all vertex pairs of K_n.

    Holds a complete extension's weights and, as `distances.DistanceMatrix`,
    min-max distances; either way it is validated on construction.
    """

    values: np.ndarray

    def __init__(self, values: np.ndarray | Sequence[Sequence[float]]):
        arr = np.array(values, dtype=float)
        _check_square_symmetric(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def weight(self, u: int, v: int) -> float:
        """Entry of the vertex pair {u,v}, 1-based."""
        n = self.n
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphError(f"vertex out of range: {{{u},{v}}} for n={n}")
        return float(self.values[u - 1, v - 1])

    dist = weight


# Byte budget of one (n, n) extension table or one compiled circuit: a larger graph fails fast instead of exhausting memory.
_TABLE_BYTES = 2**30


def _check_bytes(n: int, nbytes: int, what: str) -> None:
    """Raise GraphError when a `what` of `nbytes` bytes for a graph on n vertices would pass `_TABLE_BYTES`."""
    if nbytes > _TABLE_BYTES:
        raise GraphError(f"graph too large: n={n} needs a {nbytes:,}-byte {what}, over the {_TABLE_BYTES:,}-byte limit")


def _extension_layout(g: Graph, edge_entries: np.ndarray, zero, biggest) -> np.ndarray:
    """The extension's (n, n) layout, of weight ranks, weights or evaluation slots: edges, `zero` diagonal, `biggest` elsewhere.

    Raises GraphError, before allocating, when the table would pass `_TABLE_BYTES`.
    """
    _check_bytes(g.n, g.n * g.n * edge_entries.dtype.itemsize, "table")
    table = np.full((g.n, g.n), biggest, dtype=edge_entries.dtype)
    table.flat[:: g.n + 1] = zero
    u, v = g._ends
    table[u, v] = table[v, u] = edge_entries
    return table


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values ascending, and each value's index into them in the smallest unsigned dtype that holds it."""
    levels, ranks = np.unique(values, return_inverse=True)
    return levels, ranks.astype(np.min_scalar_type(len(levels) - 1))


def _rerank_swept(levels: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A swept (n, n) rank table re-ranked to the levels it still holds, when n levels fit a narrower dtype.

    Each swept entry is 0 or a bottleneck distance, the weight of an MST
    edge (Hu 1961), so at most n levels remain and index n-1 is the top
    rank.  A table already that narrow comes back as it is.  Otherwise the
    kept levels and a new table of ranks into them are returned; the
    ranks keep their order, so min and max read the same levels.
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


def complete_extension(g: Graph, x: Weighting) -> ExtendedWeighting:
    """Extend (g, x) to K_n, giving every non-edge the maximum edge weight.

    Pairs that are edges keep their weight and the diagonal is zero.  MST
    weight is unchanged by the extension.
    """
    _check_weighting(g, x)
    levels, table = _rank_table(g, x)
    return ExtendedWeighting(levels[table])


def _plain(w: float):
    """The weight to print: an int if integral, else the float itself.

    Integral weights print as integers (canonical for the integer test
    data); a float prints as its shortest round-trip repr, in text and JSON.
    """
    return int(w) if w == int(w) else w


def format_edge_list(g: Graph, x: Weighting) -> str:
    """Canonical edge-list text: header `n m`, then one `u v w` line per edge."""
    _check_weighting(g, x)
    lines = [f"{u} {v} {_plain(w)}" for (u, v), w in zip(g.edges, x.values)]
    return "\n".join([f"{g.n} {g.m}", *lines]) + "\n"


def parse_graph(text: str) -> tuple[Graph, Weighting]:
    """Parse edge-list text into a validated (Graph, Weighting) pair.

    Format: `#` comment lines and blank lines are skipped; the first data
    line is `n m`; exactly m data lines `u v w` follow, with 1-based vertex
    ids and nonnegative finite decimal weights.  Of several faults, the first
    read-time one (syntax, header, edge count) is reported, else `Graph`'s
    first structural fault, else `Weighting`'s first weight fault, by line.
    """
    n = m = None  # from the header line
    pairs: list[tuple[int, int]] = []
    weights: list[float] = []
    linenos: list[int] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if n is None:
            if len(tokens) != 2:
                raise ParseError(f"expected header 'n m' on line {lineno}")
            try:
                n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(f"non-integer header on line {lineno}") from None
            if n < 1:
                raise ParseError(f"vertex count must be >= 1 on line {lineno}")
            if m < 0:
                raise ParseError(f"edge count must be >= 0 on line {lineno}")
            if m < n - 1:  # rejected before n-sized structures are built
                raise ParseError(f"disconnected graph: {m} edges cannot connect {n} vertices (line {lineno})")
            continue
        if len(pairs) == m:
            raise ParseError(f"unexpected extra edge on line {lineno}")
        if len(tokens) != 3:
            raise ParseError(f"expected 'u v w' on line {lineno}")
        try:
            pairs.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            raise ParseError(f"non-integer vertex id on line {lineno}") from None
        try:
            weights.append(float(tokens[2]))
        except ValueError:
            raise ParseError(f"invalid weight on line {lineno}") from None
        linenos.append(lineno)

    if n is None:
        raise ParseError("empty input: missing 'n m' header")
    if len(pairs) != m:
        raise ParseError(f"expected {m} edges, got {len(pairs)}")
    try:
        return Graph(n, pairs), Weighting(weights)
    except GraphError as exc:
        if exc.edge is None:
            raise
        raise ParseError(f"{exc.args[0]} on line {linenos[exc.edge]}") from None
