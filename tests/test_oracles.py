import itertools
import random

import numpy as np
import pytest

from minmaxmst import (
    Graph,
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
    parse_graph,
    random_connected_graph,
)
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

    def test_sparse_graph_sentinel_not_selected(self):
        # non-edges must not enter the selection even when M equals a weight
        g, x = parse_graph("4 3\n1 2 1\n2 3 2\n3 4 3\n")
        assert maggs_plotkin_mst(g, x) == 6.0


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


def test_oracles_pairwise_consistent_exhaustive_n4(small_graphs):
    for g in small_graphs[4]:
        for values in itertools.product((0, 1, 2), repeat=g.m):
            x = Weighting(values)
            k = kruskal_mst(g, x)
            assert bruteforce_mst(g, x) == k
