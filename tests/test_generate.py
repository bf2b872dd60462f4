import random

import pytest

from minmaxmst import GraphError, format_edge_list, parse_graph, random_connected_graph


def gen(n, density, seed, max_weight=10**6):
    return random_connected_graph(n, density, random.Random(seed), max_weight)


class TestRandomConnectedGraph:
    def test_density_zero_gives_tree(self):
        g, _ = gen(5, 0.0, seed=1)
        assert g.m == 4

    def test_density_one_gives_complete(self):
        g, _ = gen(5, 1.0, seed=1)
        assert g.m == 10

    def test_same_seed_same_instance(self):
        assert gen(9, 0.4, seed=7) == gen(9, 0.4, seed=7)

    def test_different_seeds_differ(self):
        a = format_edge_list(*gen(12, 0.5, seed=1))
        b = format_edge_list(*gen(12, 0.5, seed=2))
        assert a != b

    def test_weights_in_range(self):
        _, x = gen(8, 0.5, seed=3, max_weight=9)
        assert all(0 <= w <= 9 and w == int(w) for w in x.values)

    def test_roundtrips_through_parser(self):
        for seed in range(5):
            g, x = gen(7, 0.6, seed=seed)
            assert parse_graph(format_edge_list(g, x)) == (g, x)

    def test_single_vertex(self):
        g, x = gen(1, 0.0, seed=4)
        assert g.n == 1 and g.m == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            gen(0, 0.5, seed=1)
        with pytest.raises(GraphError):
            gen(4, 1.5, seed=1)
        with pytest.raises(GraphError):
            gen(4, -0.1, seed=1)

    def test_vertex_count_checked_by_graph(self):
        with pytest.raises(GraphError, match=r"^vertex count must be >= 1$"):
            gen(0, 0.5, seed=1)
