"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import hypothesis.strategies as st

from minmaxmst import Graph, Weighting


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8):
    """Connected simple graph: a random tree plus a random subset of extra pairs."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(2, n + 1):
        parent = draw(st.integers(1, v - 1))
        edges.add((parent, v))
    rest = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    picks = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    edges.update(pair for pair, keep in zip(rest, picks) if keep)
    return Graph(n, sorted(edges))


@st.composite
def weighted_graphs(draw, min_n: int = 2, max_n: int = 8, max_weight: int = 50):
    """(Graph, Weighting) with small integer weights (ties are likely)."""
    g = draw(connected_graphs(min_n, max_n))
    weights = draw(
        st.lists(st.integers(0, max_weight), min_size=g.m, max_size=g.m)
    )
    return g, Weighting(weights)


# edge cases of the rank mapping: signed zeros, the smallest subnormal, extremes
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300)


@st.composite
def float_weighted_graphs(draw, min_n: int = 2, max_n: int = 8):
    """(Graph, Weighting) with float weights from 1e-300 to 1e300 and heavy ties.

    Each weight comes from a small pool, so ties are the rule; the pool
    mixes magnitudes across the float range with subnormals and -0.0
    next to 0.0.  Sums stay far below the float range.
    """
    g = draw(connected_graphs(min_n, max_n))
    magnitudes = st.floats(min_value=1e-300, max_value=1e300)
    pool = draw(st.lists(st.one_of(magnitudes, st.sampled_from(SPECIAL_FLOATS)), min_size=1, max_size=6))
    weights = draw(st.lists(st.sampled_from(pool), min_size=g.m, max_size=g.m))
    return g, Weighting(weights)
