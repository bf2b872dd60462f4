"""Undirected simple graphs, edge weightings and their complete-graph extension.

Vertices are numbered 1..n.  Edges carry a stable index given by their
position in the edge list (file order for parsed graphs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Invalid graph structure (self-loop, duplicate edge, disconnected, ...)."""


class ParseError(GraphError):
    """Malformed edge-list input; message carries the offending line number."""


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# One tuple per vertex pair, shared by all graphs: edge tuples are most of
# what a graph keeps.  Only validated graphs add to it, so it holds at most
# n(n-1)/2 pairs for the largest n seen.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


@dataclass(frozen=True, init=False)
class Graph:
    """Connected undirected simple graph on vertices 1..n."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "edges", tuple(_normalize_edge(u, v) for u, v in edges)
        )
        self._validate()
        object.__setattr__(self, "edges", tuple(_PAIRS.setdefault(e, e) for e in self.edges))

    def _validate(self) -> None:
        if self.n < 1:
            raise GraphError("graph must have at least one vertex")
        seen: set[tuple[int, int]] = set()
        uf, merges = _UnionFind(self.n), 0
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise GraphError(f"vertex id out of range in edge {{{u},{v}}}")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge {{{u},{v}}}")
            seen.add((u, v))
            if merges < self.n - 1:  # n-1 merges already connect every vertex
                merges += uf.union(u, v)
        if merges < self.n - 1:
            raise GraphError("disconnected graph")

    @cached_property
    def _tree(self) -> SpanningTree:
        """fix_spanning_tree's tree, kept on the graph so it lives as long as the graph."""
        adj = self.adjacency
        index = self.edge_index
        visited = [False] * (self.n + 1)
        visited[1] = True
        order: list[int] = []
        stack = [(1, iter(adj[1]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if not visited[v]:
                    visited[v] = True
                    order.append(index[_normalize_edge(u, v)])
                    stack.append((v, iter(adj[v])))
                    break
            else:
                stack.pop()
        return SpanningTree(order)

    @property
    def m(self) -> int:
        return len(self.edges)

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


@dataclass(frozen=True, init=False)
class Weighting:
    """One nonnegative weight per edge index of a host graph."""

    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]):
        object.__setattr__(self, "values", tuple(float(w) for w in values))
        for i, w in enumerate(self.values):
            if not (w >= 0 and math.isfinite(w)):
                raise GraphError(f"weight of edge {i} must be finite and >= 0, got {w}")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


@dataclass(frozen=True, init=False)
class SpanningTree:
    """Ordered list of n-1 edge indices of a host graph."""

    edges: tuple[int, ...]

    def __init__(self, edges: Iterable[int]):
        object.__setattr__(self, "edges", tuple(int(e) for e in edges))

    def __len__(self) -> int:
        return len(self.edges)


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
    uf = _UnionFind(g.n)
    for idx in t.edges:
        if not 0 <= idx < g.m:
            raise GraphError(f"edge index {idx} out of range")
        if not uf.union(*g.edges[idx]):
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
    if not np.array_equal(values, values.T):
        raise GraphError("matrix must be symmetric")
    if np.any(values < 0):
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
        return float(self.values[u - 1, v - 1])

    dist = weight


def _extension_layout(g: Graph, edge_entries: np.ndarray, zero, biggest) -> np.ndarray:
    """The extension's (n, n) layout, of weights or node ids: edges, `zero` diagonal, `biggest` elsewhere."""
    table = np.full((g.n, g.n), biggest, dtype=edge_entries.dtype)
    table.flat[:: g.n + 1] = zero
    ends = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * g.m) - 1
    u, v = ends[0::2], ends[1::2]
    table[u, v] = table[v, u] = edge_entries
    return table


def _extension_table(g: Graph, x: Weighting) -> np.ndarray:
    """Weight table of the complete extension as a fresh (n, n) array (0-based)."""
    biggest = reduce(lambda a, b: a if a >= b else b, x.values) if g.m else 0.0  # m-1 max ops
    return _extension_layout(g, np.array(x.values, dtype=float), 0.0, biggest)


def complete_extension(g: Graph, x: Weighting) -> ExtendedWeighting:
    """Extend (g, x) to K_n, giving every non-edge the maximum edge weight.

    The maximum M is computed by a left fold over the edge weights in index
    order (m-1 max operations); pairs that are edges keep their weight and
    the diagonal is zero.  MST weight is unchanged by the extension.
    """
    _check_weighting(g, x)
    return ExtendedWeighting(_extension_table(g, x))


def _format_weight(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def format_edge_list(g: Graph, x: Weighting) -> str:
    """Canonical edge-list text: header `n m`, then one `u v w` line per edge."""
    _check_weighting(g, x)
    lines = [f"{g.n} {g.m}"]
    for (u, v), w in zip(g.edges, x.values):
        lines.append(f"{u} {v} {_format_weight(w)}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> tuple[Graph, Weighting]:
    """Parse edge-list text into a validated (Graph, Weighting) pair.

    Format: `#` comment lines and blank lines are skipped; the first data
    line is `n m`; exactly m data lines `u v w` follow, with 1-based vertex
    ids and nonnegative finite decimal weights.
    """
    header: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
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
            header = (n, m)
            continue
        if len(pairs) == header[1]:
            raise ParseError(f"unexpected extra edge on line {lineno}")
        if len(tokens) != 3:
            raise ParseError(f"expected 'u v w' on line {lineno}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id on line {lineno}") from None
        try:
            w = float(tokens[2])
        except ValueError:
            raise ParseError(f"invalid weight on line {lineno}") from None
        if u == v:
            raise ParseError(f"self-loop on line {lineno}")
        if not (1 <= u <= header[0] and 1 <= v <= header[0]):
            raise ParseError(f"vertex id out of range on line {lineno}")
        if _normalize_edge(u, v) in seen:
            raise ParseError(f"duplicate edge on line {lineno}")
        if math.isnan(w) or w < 0:
            raise ParseError(f"negative weight on line {lineno}")
        if math.isinf(w):
            raise ParseError(f"non-finite weight on line {lineno}")
        seen.add(_normalize_edge(u, v))
        pairs.append((u, v))
        weights.append(w)

    if header is None:
        raise ParseError("empty input: missing 'n m' header")
    if len(pairs) != header[1]:
        raise ParseError(f"expected {header[1]} edges, got {len(pairs)}")
    return Graph(header[0], pairs), Weighting(weights)
