import itertools
import math
import random

import numpy as np
import pytest

from minmaxmst import (
    Graph,
    GraphError,
    PreconditionError,
    Weighting,
    all_pairs_minmax,
    bruteforce_mst,
    complete_extension,
    complete_graph,
    hu_minmax_via_mst,
    kruskal_mst,
    kruskal_tree,
    maggs_plotkin_mst,
    mst_puredp,
    parse_graph,
    random_connected_graph,
)
from minmaxmst import distances, graphs, oracles
from minmaxmst.oracles import _spanning_tree_array
from conftest import random_instances


def distinct_instance(rng, n, density):
    g, x = random_connected_graph(n, density, rng)
    values = rng.sample(range(10 * g.m + 10), g.m)
    return g, Weighting(values)


class TestKruskal:
    def test_triangle(self, triangle):
        g, x = triangle
        # brute force over the three spanning trees: {1+3, 1+2, 3+2}
        assert min(1 + 3, 1 + 2, 3 + 2) == 3
        assert kruskal_mst(g, x) == 3.0

    def test_tree_input_sum(self):
        g, x = parse_graph("4 3\n1 2 4\n2 3 5\n3 4 6\n")
        assert kruskal_mst(g, x) == 15.0

    def test_all_zero(self):
        g, x = parse_graph("3 3\n1 2 0\n1 3 0\n2 3 0\n")
        assert kruskal_mst(g, x) == 0.0

    def test_tree_is_spanning(self, triangle):
        g, x = triangle
        assert kruskal_tree(g, x) == (0, 2)


class TestNetworkx:
    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_puredp_matches_networkx_mst(self, n):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        for density, weights in (
            (0.01, lambda m: rng.sample(range(10 * m), m)),  # sparse, distinct
            (0.5, lambda m: [rng.randint(0, 15) for _ in range(m)]),  # dense, tied, zeros
            (0.1, lambda m: [rng.randint(0, 500) / 10 for _ in range(m)]),  # one decimal, tied
        ):
            g, _ = random_connected_graph(n, density, rng)
            x = Weighting(weights(g.m))
            nxg = nx.Graph()
            nxg.add_weighted_edges_from((u, v, w) for (u, v), w in zip(g.edges, x.values))
            tree = nx.minimum_spanning_edges(nxg, data=True)
            assert mst_puredp(g, x)[0] == math.fsum(d["weight"] for _, _, d in tree)


class TestBruteforce:
    def test_triangle(self, triangle):
        g, x = triangle
        assert bruteforce_mst(g, x) == 3.0

    def test_k4_uniform(self):
        kn = complete_graph(4)
        assert bruteforce_mst(kn, Weighting([5] * 6)) == 15.0

    def test_path_graph(self):
        g, x = parse_graph("4 3\n1 2 1\n2 3 2\n3 4 3\n")
        assert bruteforce_mst(g, x) == 6.0

    def test_single_vertex(self):
        g, x = parse_graph("1 0\n")
        assert bruteforce_mst(g, x) == 0.0

    def test_size_limit(self):
        kn = complete_graph(9)
        with pytest.raises(PreconditionError, match="n <= 8"):
            bruteforce_mst(kn, Weighting([1] * kn.m))

    def test_tree_array_cache_is_bounded(self):
        paths = [Graph(6, [(p[k], p[k + 1]) for k in range(5)]) for p in itertools.permutations(range(1, 7))]
        for g in paths[:40]:
            assert bruteforce_mst(g, Weighting([1] * 5)) == 5.0
        info = _spanning_tree_array.cache_info()
        assert info.maxsize is not None and info.maxsize <= 16
        assert info.currsize <= info.maxsize

    def test_agrees_with_kruskal_exhaustive_small(self, small_graphs):
        rng = random.Random(21)
        for n in range(1, 6):
            for g in small_graphs[n]:
                x = Weighting([rng.randint(0, 20) for _ in range(g.m)])
                assert bruteforce_mst(g, x) == kruskal_mst(g, x)


class TestMaggsPlotkin:
    def test_triangle(self, triangle):
        g, x = triangle
        assert maggs_plotkin_mst(g, x) == 3.0

    def test_tree_distinct_selects_everything(self):
        g, x = parse_graph("4 3\n1 2 4\n2 3 5\n3 4 6\n")
        assert maggs_plotkin_mst(g, x) == 15.0

    def test_duplicate_weights_rejected(self):
        g, x = parse_graph("3 3\n1 2 1\n1 3 1\n2 3 2\n")
        with pytest.raises(PreconditionError, match="distinct"):
            maggs_plotkin_mst(g, x)

    def test_agrees_with_kruskal_random(self):
        rng = random.Random(22)
        for _ in range(60):
            g, x = distinct_instance(rng, rng.randint(2, 32), rng.random())
            assert maggs_plotkin_mst(g, x) == kruskal_mst(g, x)

    def test_ranks_once_and_sweeps_no_float_table(self, monkeypatch):
        """One `_ranks` call per solve, over the weights and the sentinel; `all_pairs_minmax`,
        which would rank its float table again, is never called."""
        calls = []
        monkeypatch.setattr(oracles, "all_pairs_minmax", lambda *a: pytest.fail("swept a float table"), raising=False)
        monkeypatch.setattr(distances, "all_pairs_minmax", lambda *a: pytest.fail("swept a float table"))
        for module in (oracles, distances):
            monkeypatch.setattr(module, "_ranks", lambda v, rank=module._ranks: calls.append(len(v)) or rank(v))
        rng = random.Random(23)
        for _ in range(20):
            g, x = distinct_instance(rng, rng.randint(1, 14), rng.random())
            calls.clear()
            assert maggs_plotkin_mst(g, x) == kruskal_mst(g, x)
            assert calls == [g.m + 1]

    def test_sparse_graph_sentinel_not_selected(self):
        # non-edges must not enter the selection even when M equals a weight
        g, x = parse_graph("4 3\n1 2 1\n2 3 2\n3 4 3\n")
        assert maggs_plotkin_mst(g, x) == 6.0


def _per_source_dfs(g, x):
    """Bottleneck distances as a Python list table, by a DFS over Kruskal's tree from every vertex."""
    adj = [[] for _ in range(g.n + 1)]
    for idx in kruskal_tree(g, x):
        (u, v), w = g.edges[idx], x.values[idx]
        adj[u].append((v, w))
        adj[v].append((u, w))
    out = [[0.0] * g.n for _ in range(g.n)]
    for src in range(1, g.n + 1):
        stack = [(src, 0, 0.0)]  # (vertex, parent, max weight from src)
        while stack:
            vert, par, high = stack.pop()
            for nb, w in adj[vert]:
                if nb != par:
                    h = high if high >= w else w
                    out[src - 1][nb - 1] = h
                    stack.append((nb, vert, h))
    return out


class TestHu:
    def test_triangle_entry(self, triangle):
        g, x = triangle
        d = hu_minmax_via_mst(g, x)
        assert d.dist(1, 3) == 2.0  # max(1, 2) along the tree path

    def test_tree_input_path_max(self):
        g, x = parse_graph("4 3\n1 2 4\n2 3 9\n3 4 6\n")
        d = hu_minmax_via_mst(g, x)
        assert d.dist(1, 4) == 9.0
        assert d.dist(3, 4) == 6.0

    def test_uniform_weights(self):
        kn = complete_graph(5)
        d = hu_minmax_via_mst(kn, Weighting([3] * kn.m))
        off = ~np.eye(5, dtype=bool)
        assert np.all(d.values[off] == 3.0)

    def test_matches_dp_distances(self):
        for g, x in random_instances(40, seed=23, max_n=14):
            via_mst = hu_minmax_via_mst(g, x)
            via_dp = all_pairs_minmax(complete_extension(g, x))
            assert np.array_equal(via_mst.values, via_dp.values)

    def test_matches_dp_distances_under_heavy_ties(self):
        # tie-breaking changes which MST kruskal picks, never the path maxima
        for g, x in random_instances(40, seed=24, max_n=12, max_weight=3):
            via_mst = hu_minmax_via_mst(g, x)
            via_dp = all_pairs_minmax(complete_extension(g, x))
            assert np.array_equal(via_mst.values, via_dp.values)

    def test_equals_the_per_source_dfs(self):
        """Single linkage over Kruskal's tree against the DFS from every vertex that it replaced, ties included."""
        rng = random.Random(29)
        cases = [parse_graph("1 0\n"), parse_graph("2 1\n1 2 4\n"), parse_graph("3 2\n1 2 -0\n2 3 -0\n")]
        for _ in range(40):
            g, _ = random_connected_graph(rng.randint(1, 30), rng.random(), rng)
            cases.append((g, Weighting(rng.choice([-0.0, 0.0, 1.0, 2.5, 7.0]) for _ in range(g.m))))
        for g, x in cases:
            d = hu_minmax_via_mst(g, x)
            expect = _per_source_dfs(g, x)
            assert d.values.tolist() == expect and not np.signbit(d.values).any()
            assert np.array_equal(d.values, all_pairs_minmax(complete_extension(g, x)).values)

    def test_table_budget_refuses_before_building(self, monkeypatch):
        g, x = parse_graph("64 63\n" + "".join(f"{v} {v + 1} {v}\n" for v in range(1, 64)))
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 32_767)  # its float64 table is 32,768 bytes
        monkeypatch.setattr(oracles, "kruskal_tree", lambda g, x: pytest.fail("built the tree"))
        monkeypatch.setattr(oracles, "DistanceMatrix", lambda values: pytest.fail("built the table"))
        with pytest.raises(GraphError, match=r"^graph too large: n=64 needs a 32,768-byte table, over the 32,767-byte limit$"):
            hu_minmax_via_mst(g, x)
        monkeypatch.undo()
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 32_768)
        assert hu_minmax_via_mst(g, x).dist(1, 64) == 63.0

    def test_work_budget_refuses_before_building(self, monkeypatch):
        g, x = parse_graph("64 63\n" + "".join(f"{v} {v + 1} {v}\n" for v in range(1, 64)))
        monkeypatch.setattr(graphs, "_WORK_OPS", 4031)  # 64 * 63 = 4,032 path maxima
        monkeypatch.setattr(oracles, "kruskal_tree", lambda g, x: pytest.fail("built the tree"))
        with pytest.raises(GraphError, match=r"^graph too large: n=64 needs 4,032 operations, over the 4,031-operation limit$"):
            hu_minmax_via_mst(g, x)


def test_oracles_pairwise_consistent_exhaustive_n4(small_graphs):
    for g in small_graphs[4]:
        for values in itertools.product((0, 1, 2), repeat=g.m):
            x = Weighting(values)
            k = kruskal_mst(g, x)
            assert bruteforce_mst(g, x) == k
