"""Independent checks of the package's answers, run outside the timed regions.

The references here share no code with `minmaxmst`: MST weights come from
networkx on the benchmark's own edge lists, op counts from the paper's closed
form, and circuit shape from the `emit-circuit` text format.  networkx is
imported on first use, so a workload can read its peak memory before any
reference computation has run.
"""

from __future__ import annotations

import math

from inputs import Instance

# Outcomes of comparing an MST weight with the reference.
OK = "ok"
FLOAT_ORDER = "float-order"  # off only by float rounding: the tree-order sum fault
WRONG = "wrong"


def mst_edge_weights(inst: Instance) -> list[float]:
    """Weights of a networkx minimum spanning tree (a multiset every MST shares)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, inst.n + 1))
    g.add_weighted_edges_from((u, v, float(w)) for u, v, w in inst.edges)
    tree = nx.minimum_spanning_tree(g)
    return [w for _, _, w in tree.edges(data="weight")]


def judge_weight(value: float, tree_weights: list[float], integer: bool) -> str:
    """Compare an answer with `math.fsum` of the reference tree's weights.

    Integer weights sum exactly in any order, so anything but equality is
    wrong.  With fractional weights an answer within float rounding of the
    exact sum is the known tree-order summation fault, not a wrong tree.
    """
    exact = math.fsum(tree_weights)
    if value == exact:
        return OK
    if not integer and math.isclose(value, exact, rel_tol=1e-12, abs_tol=1e-12):
        return FLOAT_ORDER
    return WRONG


def puredp_ops(n: int, m: int) -> int:
    """Closed-form op count of the O(n^3) schedule on a connected graph with n >= 2.

    n^2(n-1) sweep ops, 2n(n-1) ops per each of n-2 zeroing updates, n-1
    additions and m-1 maxima for the extension weight.
    """
    return n * n * (n - 1) + (n - 2) * 2 * n * (n - 1) + (n - 1) + (m - 1)


def same_terms(terms: list[float], tree_weights: list[float]) -> bool:
    """The telescoping terms are a permutation of the MST's edge weights."""
    return sorted(terms) == sorted(tree_weights)


def circuit_shape(text: str) -> tuple[int, int]:
    """(node count, depth) of a circuit in the `emit-circuit` text format.

    Inputs and constants have depth 0; an operation node is one deeper than
    its deeper operand.  Raises ValueError on a line that breaks the format,
    including an operand that does not point at an earlier node.
    """
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("output "):
        raise ValueError("circuit text lacks its final 'output' line")
    depth: list[int] = []
    for i, line in enumerate(lines[:-1]):
        ident, eq, kind, *args = line.split()
        if int(ident) != i or eq != "=":
            raise ValueError(f"bad node line {i}: {line!r}")
        if kind in ("input", "const"):
            depth.append(0)
        elif kind in ("min", "max", "add") and len(args) == 2:
            a, b = int(args[0]), int(args[1])
            if not (0 <= a < i and 0 <= b < i):
                raise ValueError(f"node {i} reads a later node: {line!r}")
            depth.append(1 + max(depth[a], depth[b]))
        else:
            raise ValueError(f"unknown node kind on line {i}: {line!r}")
    out = int(lines[-1].split()[1])
    if not 0 <= out < len(depth):
        raise ValueError(f"output {out} is not a node")
    return len(depth), max(depth)
