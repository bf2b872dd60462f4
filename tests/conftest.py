"""Shared fixtures: exhaustive small-graph enumeration and random instances."""

from __future__ import annotations

import random

import pytest

from minmaxmst import Graph, Weighting, complete_graph, parse_graph, random_connected_graph

TRIANGLE = "3 3\n1 2 1\n1 3 3\n2 3 2\n"


def _connected_labeled_graphs(n: int) -> list[Graph]:
    """Every connected simple graph on the labeled vertex set 1..n."""
    if n == 1:
        return [Graph(1, [])]
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    graphs = []
    for mask in range(1 << len(pairs)):
        if mask.bit_count() < n - 1:
            continue
        adj = [0] * (n + 1)
        for b, (u, v) in enumerate(pairs):
            if mask >> b & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen, frontier = 1 << 1, 1 << 1
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
        if seen == ((1 << (n + 1)) - 2):  # vertices 1..n all reached
            graphs.append(
                Graph(n, [p for b, p in enumerate(pairs) if mask >> b & 1])
            )
    return graphs


@pytest.fixture(scope="session")
def small_graphs() -> dict[int, list[Graph]]:
    """All connected labeled graphs for each n up to 6 (1/1/4/38/728/26704)."""
    return {n: _connected_labeled_graphs(n) for n in range(1, 7)}


@pytest.fixture()
def triangle() -> tuple[Graph, Weighting]:
    return parse_graph(TRIANGLE)


def random_instances(count: int, seed: int, min_n: int = 2, max_n: int = 16,
                     max_weight: int = 10**6) -> list[tuple[Graph, Weighting]]:
    """Seeded batch of random connected instances with varied density."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        out.append(random_connected_graph(n, rng.random(), rng, max_weight))
    return out


def small_graphs_of_every_shape(seed):
    """n = 1, a single edge, trees, and random graphs with n <= 12."""
    rng = random.Random(seed)
    graphs = [parse_graph("1 0\n")[0], parse_graph("2 1\n1 2 7\n")[0], complete_graph(3)]
    graphs += [random_connected_graph(rng.randint(2, 12), 0.0, rng)[0] for _ in range(8)]
    graphs += [random_connected_graph(rng.randint(2, 12), rng.random(), rng)[0] for _ in range(24)]
    return graphs
