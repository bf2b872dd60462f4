"""Undirected simple graphs, edge weightings and their complete-graph extension.

Vertices are numbered 1..n.  Edges carry a stable index given by their
position in the edge list (file order for parsed graphs).
"""

from __future__ import annotations

import io
import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NoReturn, Sequence

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
        """Check the edges on arrays and keep them; the first faulty edge is named by its index.

        That edge's first fault is named, in the order non-integer vertex id,
        self-loop, vertex id out of range, duplicate edge; a graph without one
        must be connected.
        """
        if n < 1:
            raise GraphError("vertex count must be >= 1")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges)
        if len(edges) and pairs.dtype.kind not in "iu":  # floats, strings, and objects such as ids past int64
            _first_edge_fault(n, edges)
        pairs = pairs.astype(np.int64, copy=False).reshape(len(edges), 2)
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        # every edge a pair in 1..n < 2**31, so each pair code (n+1)lo+hi fits int64; distinct codes are distinct edges
        if not (n < 2**31 and lo.min(initial=1) >= 1 and hi.max(initial=n) <= n and (lo != hi).all()):
            _first_edge_fault(n, edges)
        code = np.sort(lo * (n + 1) + hi)
        if (code[1:] == code[:-1]).any():
            _first_edge_fault(n, edges)
        # fewer edges cannot connect n vertices: build nothing of size n for them
        if len(pairs) < n - 1 or len(_forest(n, zip(lo.tolist(), hi.tolist()))) < n - 1:
            raise GraphError("disconnected graph")
        ends = np.array((lo, hi), np.min_scalar_type(n - 1))
        ends -= 1
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
        m = self.m
        # neighbour v over edge i is the int v*m + i; as i < m, ascending ints are ascending (v, i)
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self._ends.T.tolist()):
            adj[u].append(v * m + i)
            adj[v].append(u * m + i)
        visited = [False] * self.n
        visited[0] = True
        order: list[int] = []
        stack = [iter(sorted(adj[0]))]
        while stack:
            for key in stack[-1]:
                v = key // m
                if not visited[v]:
                    visited[v] = True
                    order.append(key - v * m)
                    stack.append(iter(sorted(adj[v])))
                    break
            else:
                stack.pop()
        return SpanningTree(order)

    @cached_property
    def _walk(self) -> np.ndarray:
        """The 0-based ends of the fixed tree's edges in walk order: a read-only (2, n-1) array in `_ends`'s dtype, kept like `_tree`."""
        ends = self._ends[:, self._tree.edges]
        ends.setflags(write=False)
        return ends

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
    form the solvers read; `values` gives them as a tuple of floats.  A
    1-D float64 ndarray is copied as it is; any other input is read
    value by value with `float`.
    """

    array: np.ndarray

    def __init__(self, values: Iterable[float]):
        if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
            arr = values.copy()
        else:
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
    """Ordered list of n-1 edge indices of a host graph, each an integer (a NumPy integer too)."""

    edges: tuple[int, ...]

    def __init__(self, edges: Iterable[int]):
        object.__setattr__(self, "edges", tuple(_integer(e, "edge index") for e in edges))

    def __len__(self) -> int:
        return len(self.edges)


def _integer(value: int, what: str) -> int:
    """value through `operator.index`: int() would truncate 2.5 to an index or vertex the caller never named."""
    try:
        return operator.index(value)
    except TypeError:
        raise GraphError(f"{what} {value!r} is not an integer") from None


def _weight_sum(weights: Iterable[float]) -> float:
    """Exactly rounded sum of weights (`math.fsum`); GraphError when it passes the float range."""
    try:
        return math.fsum(weights)
    except OverflowError:  # finite weights can sum past 1.8e308
        raise GraphError("MST weight is too large for a 64-bit float") from None


def _check_weighting(g: Graph, x: Weighting) -> None:
    if len(x) != g.m:
        raise GraphError(f"weighting has {len(x)} values for a graph with {g.m} edges")


def _first_edge_fault(n: int, edges: Sequence[tuple[int, int]] | np.ndarray) -> NoReturn:
    """Raise GraphError naming the first faulty edge as `Graph` does, by one loop over the edges as Python ints.

    A repeat is named at its second occurrence.  `Graph` calls this only when a whole-array test
    fails; a list with no faulty edge then has n >= 2**31 and fewer than n-1 edges: disconnected.
    """
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(edges):
        try:
            u, v = sorted((operator.index(u), operator.index(v)))
        except TypeError:
            raise GraphError("non-integer vertex id", i) from None
        if u == v:
            raise GraphError("self-loop", i)
        if u < 1 or v > n:
            raise GraphError("vertex id out of range", i)
        if (u, v) in seen:
            raise GraphError("duplicate edge", i)
        seen.add((u, v))
    raise GraphError("disconnected graph")


def _forest(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Positions of the pairs that join two components, in order, stopping at n-1 joins.

    A union-find over vertex ids 0..n, so pairs may be 0- or 1-based;
    n-1 joins connect n vertices, so later pairs are not read.
    """
    parent = list(range(n + 1))
    joins: list[int] = []
    for i, (u, v) in enumerate(pairs):
        # find, inlined, with path halving: each step points a vertex at its grandparent and moves there
        while (p := parent[u]) != u:
            parent[u] = u = parent[p]
        while (p := parent[v]) != v:
            parent[v] = v = parent[p]
        if u != v:
            parent[u] = v
            joins.append(i)
            if len(joins) == n - 1:
                break
    return joins


def validate_spanning_tree(g: Graph, t: SpanningTree) -> None:
    """Raise GraphError unless t's edge indices form a spanning tree of g."""
    if len(t.edges) != g.n - 1:
        raise GraphError(f"spanning tree needs {g.n - 1} edges, got {len(t.edges)}")
    if len(set(t.edges)) != len(t.edges):
        raise GraphError("spanning tree repeats an edge index")
    for idx in t.edges:
        if not 0 <= idx < g.m:
            raise GraphError(f"edge index {idx} out of range")
    if len(_forest(g.n, g._ends[:, t.edges].T.tolist())) < g.n - 1:  # n-1 acyclic edges on n vertices span
        raise GraphError("spanning tree contains a cycle")


def fix_spanning_tree(g: Graph) -> SpanningTree:
    """Deterministic spanning tree of g, independent of any weighting.

    Depth-first search from vertex 1 exploring neighbors in ascending
    order; tree edges in discovery order.  Kept on g, freed with it.
    """
    return g._tree


def _vertex_pair(n: int, u: int, v: int) -> tuple[int, int]:
    """u and v as 1-based vertices of an n-vertex table or graph."""
    u, v = _integer(u, "vertex"), _integer(v, "vertex")
    if not (1 <= u <= n and 1 <= v <= n):
        raise GraphError(f"vertex out of range: {{{u},{v}}} for n={n}")
    return u, v


@dataclass(frozen=True, eq=False, init=False)
class ExtendedWeighting:
    """Read-only symmetric n x n table over all vertex pairs of K_n.

    Holds a complete extension's weights and, as `distances.DistanceMatrix`,
    min-max distances.  A table from outside is copied and checked on
    construction; one the package computed is kept as built, by `_built`.
    """

    values: np.ndarray

    def __init__(self, values: np.ndarray | Sequence[Sequence[float]]):
        arr = np.array(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise GraphError(f"expected a square matrix, got shape {arr.shape}")
        if np.any(np.diagonal(arr) != 0):
            raise GraphError("matrix diagonal must be zero")
        if not ((arr == arr.T) | (np.isnan(arr) & np.isnan(arr.T))).all():  # bool masks, no float copies
            raise GraphError("matrix must be symmetric")
        if not np.all(arr >= 0):  # NaN is not nonnegative, as in a Weighting
            raise GraphError("matrix entries must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _built(cls, arr: np.ndarray) -> ExtendedWeighting:
        """Keep a fresh float64 table the package computed: no copy and no check, only made read-only."""
        arr.setflags(write=False)
        table = object.__new__(cls)
        object.__setattr__(table, "values", arr)
        return table

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def weight(self, u: int, v: int) -> float:
        """Entry of the vertex pair {u,v}, 1-based."""
        u, v = _vertex_pair(self.n, u, v)
        return float(self.values[u - 1, v - 1])

    dist = weight


# Byte budget of one (n, n) extension table or one compiled circuit: a larger graph fails fast instead of exhausting memory.
_TABLE_BYTES = 2**30


def _check_bytes(n: int, nbytes: int, what: str) -> None:
    """Raise GraphError when a `what` of `nbytes` bytes for a graph on n vertices would pass `_TABLE_BYTES`."""
    if nbytes > _TABLE_BYTES:
        raise GraphError(f"graph too large: n={n} needs a {nbytes:,}-byte {what}, over the {_TABLE_BYTES:,}-byte limit")


# Work budget of one solve, in (min, max, +) operations: about 35 s at the 2e9 operations a second
# of a 1,024-vertex path on a 2-core Xeon.  A graph whose table fits `_TABLE_BYTES` but whose
# schedule would run for hours (a 30,000-vertex tree: 8.1e13) fails fast instead.
_WORK_OPS = 2**36


def _check_work(n: int, ops: int) -> None:
    """Raise GraphError when a solve of `ops` operations on a graph on n vertices would pass `_WORK_OPS`."""
    if ops > _WORK_OPS:
        raise GraphError(f"graph too large: n={n} needs {ops:,} operations, over the {_WORK_OPS:,}-operation limit")


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
    """The distinct values ascending, and `values` with each value replaced by its index into them, in the smallest unsigned dtype that holds it."""
    levels, ranks = np.unique(values, return_inverse=True)
    return levels, ranks.reshape(values.shape).astype(np.min_scalar_type(len(levels) - 1))


def complete_extension(g: Graph, x: Weighting) -> ExtendedWeighting:
    """Extend (g, x) to K_n, giving every non-edge the maximum edge weight.

    Pairs that are edges keep their weight and the diagonal is zero.  MST
    weight is unchanged by the extension, and a -0.0 weight reads +0.0.
    The float64 table is checked against `_TABLE_BYTES` before it is
    allocated.
    """
    _check_weighting(g, x)
    return ExtendedWeighting._built(_extension_layout(g, x.array + 0.0, 0.0, x.array.max(initial=0.0) + 0.0))


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


# What the vectorised reader reads after the header: ASCII digits, signs, '.', 'e' and 'E',
# spaces, tabs and newlines.  On these, str.splitlines() and str.split() cut where loadtxt
# does, and loadtxt's float64 reads every token float() reads, as float() reads it.  Its
# int64 takes the integer tokens that int() takes; numpy 1.23 to 2.2 also read a vertex id
# such as "1.5", "1e0" or one past int64 through a float, with a DeprecationWarning, which
# the reader makes an error so that the loop names the id.
_EDGE_BYTES = b"0123456789+-.eE \t\n"
_EDGE_ROW = np.dtype([("uv", np.int64, 2), ("w", np.float64)])  # "uv": an (m, 2) view of the ends


def parse_graph(text: str) -> tuple[Graph, Weighting]:
    """Parse edge-list text into a validated (Graph, Weighting) pair.

    Format: `#` comment lines and blank lines are skipped; the first data
    line is `n m`; exactly m data lines `u v w` follow, with 1-based vertex
    ids and nonnegative finite decimal weights.  Of several faults, the first
    read-time one (syntax, header, edge count) is reported, else `Graph`'s
    first structural fault, else `Weighting`'s first weight fault, by line.

    The edge lines are read in one vectorised pass.  Text it does not take,
    and every fault, goes to the line loop `_parse_lines`, which accepts
    the same texts and names each fault with its line.
    """
    try:
        return _read_edge_list(text)
    except ValueError:  # GraphError too: the loop reads the text again and names the fault
        return _parse_lines(text)


def _read_edge_list(text: str) -> tuple[Graph, Weighting]:
    """The vectorised reader: the header read by `_header`, then every edge line by one `np.loadtxt`.

    It raises, for `parse_graph` to run the loop, on any text the loop might
    read differently: a line break other than "\n" or "\r\n" before the
    header, a byte outside `_EDGE_BYTES` after it (a comment line there
    too), a token loadtxt will not read as int() or float() would, a row
    count other than m, or a fault that `_header`, `Graph` or `Weighting` finds.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    body_at = 0

    def lines():  # the lines up to the header, each ended by "\n"; body_at moves past each
        nonlocal body_at
        while (end := text.find("\n", body_at)) >= 0:
            line = text[body_at:end]
            if len(line.splitlines()) > 1:
                raise ValueError("a line break other than \\n")
            body_at = end + 1
            yield line

    n, m, _ = _header(lines())
    body = text[body_at:]
    if body.encode().translate(None, _EDGE_BYTES):
        raise ValueError("a byte the reader does not read")
    # an edge line takes 6 bytes or more, "u v w" and its line break (none on the last line);
    # checked first, as loadtxt allocates max_rows rows up front
    if 6 * m > len(body) + 1:
        raise ValueError("too few bytes for m edge lines")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # on blank lines under max_rows, and on a body with no rows
        warnings.simplefilter("error", DeprecationWarning)  # an integer read through a float
        # m + 1 rows at most: one more than m shows an extra edge line, and loadtxt
        # sizes its array once instead of growing a 64 KB block (which left the heap
        # fragmented over many small parses).  Read from the str, not its bytes: the
        # large block loadtxt then frees keeps glibc's heap-trim threshold above what a
        # K_256 solve frees, where from bytes each later solve re-faulted ~400 pages.
        try:
            rows = np.loadtxt(io.StringIO(body), _EDGE_ROW, comments=None, ndmin=1, max_rows=m + 1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None
    if len(rows) != m:
        raise ValueError(f"{len(rows)} edge rows for m={m}")
    return Graph(n, rows["uv"]), Weighting(rows["w"])


def _header(lines: Iterable[str]) -> tuple[int, int, int]:
    """Read the header `n m` from the first line that is not blank or a comment: (n, m, its line number)."""
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
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
        return n, m, lineno
    raise ParseError("empty input: missing 'n m' header")


def _parse_lines(text: str) -> tuple[Graph, Weighting]:
    """The line loop: reads `parse_graph`'s format one line at a time and names the first fault with its line."""
    lines = text.splitlines()
    n, m, header = _header(lines)
    pairs: list[tuple[int, int]] = []
    weights: list[float] = []
    linenos: list[int] = []

    for lineno, line in enumerate(lines[header:], start=header + 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
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

    if len(pairs) != m:
        raise ParseError(f"expected {m} edges, got {len(pairs)}")
    try:
        return Graph(n, pairs), Weighting(weights)
    except GraphError as exc:
        if exc.edge is None:
            raise
        raise ParseError(f"{exc.args[0]} on line {linenos[exc.edge]}") from None
