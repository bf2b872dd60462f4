import hashlib
import random
import tracemalloc

import pytest

from minmaxmst import GraphError, complete_graph, format_edge_list, parse_graph, random_connected_graph


# SHA-256 of format_edge_list over 60 seeded graphs, n in 1..40 and densities
# 0, random and 1 (test_seeded_output_is_pinned); the draws of every seed are fixed
SEEDED_SHA256 = "d4b32cd6b0369618048cd245fae68b6e03bd1c5f984610eec15ecc25c240465e"


def gen(n, density, seed, max_weight=10**6):
    return random_connected_graph(n, density, random.Random(seed), max_weight)


class TestRandomConnectedGraph:
    def test_density_zero_gives_tree(self):
        g, _ = gen(5, 0.0, seed=1)
        assert g.m == 4

    def test_density_one_gives_complete(self):
        for n in range(1, 13):
            for seed in range(3):
                assert gen(n, 1.0, seed)[0].edges == complete_graph(n).edges

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

    def test_negative_max_weight(self):
        with pytest.raises(GraphError, match=r"^max-weight must be >= 0, got -1$"):
            random_connected_graph(5, 0.5, random.Random(1), -1)

    def test_vertex_count_checked_by_graph(self):
        with pytest.raises(GraphError, match=r"^vertex count must be >= 1$"):
            gen(0, 0.5, seed=1)

    def test_negative_vertex_count_checked_by_graph(self):
        with pytest.raises(GraphError, match=r"^vertex count must be >= 1$"):
            gen(-3, 0.5, seed=1)

    def test_seeded_output_is_pinned(self):
        h = hashlib.sha256()
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, 40)
            density = (0.0, rng.random(), 1.0)[seed % 3]
            h.update(format_edge_list(*random_connected_graph(n, density, rng)).encode())
        assert h.hexdigest() == SEEDED_SHA256

    def test_tree_memory_is_linear(self):
        # a list of all n(n-1)/2 non-tree pairs would peak at about 100 MiB
        tracemalloc.start()
        try:
            g, _ = gen(1500, 0.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 1499 and peak < 5 * 2**20

    def test_extras_are_drawn_without_listing_the_pairs(self):
        # the 1.1M sorted non-tree pairs that 1,123 extras were once drawn from peaked at about 100 MiB
        tracemalloc.start()
        try:
            g, _ = gen(1500, 0.001, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 1499 + 1123 and peak < 5 * 2**20


class _OnePosition(random.Random):
    """A seeded Random whose `sample` draws the one position `pick` of a range of positions."""

    pick = 0

    def sample(self, population, k):
        assert population == range(len(population)) and k == 1
        return [self.pick]


class TestPairRanks:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_positions_map_to_the_sorted_non_tree_pairs(self, n):
        pairs = {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)}
        for seed in range(6):
            tree = set(gen(n, 0.0, seed)[0].edges)  # drawn before sample, so every pick keeps this tree
            pool = sorted(pairs - tree)
            extras = []
            for j in range(len(pool)):
                rng = _OnePosition(seed)
                rng.pick = j
                g, _ = random_connected_graph(n, 1 / len(pool), rng)
                assert list(g.edges) == sorted(g.edges) and tree <= set(g.edges)
                extras += set(g.edges) - tree
            assert extras == pool
