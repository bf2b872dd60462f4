import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from minmaxmst import (
    GraphError,
    SpanningTree,
    Weighting,
    all_pairs_minmax,
    bruteforce_mst,
    complete_extension,
    complete_graph,
    fix_spanning_tree,
    kruskal_mst,
    kruskal_tree,
    mst_decomposition,
    mst_puredp,
    mst_puredp_naive,
    naive_op_counts,
    parse_graph,
    puredp_op_counts,
    random_connected_graph,
    zero_edge_update,
)
from conftest import random_instances
from strategies import weighted_graphs


def random_spanning_tree(g, rng):
    """Spanning tree from a random greedy edge order."""
    order = list(range(g.m))
    rng.shuffle(order)
    return SpanningTree(kruskal_tree(g, Weighting([order.index(i) for i in range(g.m)])))


class TestDecomposition:
    def test_triangle_terms(self, triangle):
        g, x = triangle
        dec = mst_decomposition(g, x, SpanningTree([0, 1]))  # edges {1,2}, {1,3}
        # second term: zeroing {1,2} leaves min(3, max(0, 2)) = 2
        assert dec.terms == ((0, 1.0), (1, 2.0))
        assert dec.total == kruskal_mst(g, x) == 3.0

    def test_all_zero_weights(self):
        g, x = parse_graph("4 5\n1 2 0\n1 3 0\n1 4 0\n2 3 0\n3 4 0\n")
        dec = mst_decomposition(g, x, fix_spanning_tree(g))
        assert all(d == 0.0 for _, d in dec.terms)
        assert dec.total == 0.0

    def test_tree_input_terms_are_weights(self):
        g, x = parse_graph("5 4\n1 2 4\n2 3 7\n3 4 1\n4 5 2\n")
        dec = mst_decomposition(g, x, fix_spanning_tree(g))
        assert dec.total == 14.0
        assert all(d == x.values[e] for e, d in dec.terms)

    def test_invalid_tree_rejected(self, triangle):
        g, x = triangle
        with pytest.raises(GraphError):
            mst_decomposition(g, x, SpanningTree([0]))

    def test_total_independent_of_tree_and_order(self):
        rng = random.Random(31)
        for g, x in random_instances(12, seed=32, max_n=10):
            reference = mst_decomposition(g, x, fix_spanning_tree(g)).total
            for _ in range(4):
                t = random_spanning_tree(g, rng)
                edges = list(t.edges)
                rng.shuffle(edges)
                assert mst_decomposition(g, x, SpanningTree(edges)).total == reference

    def test_all_tree_distances_zero_after_full_walk(self):
        for g, x in random_instances(10, seed=33, max_n=10):
            d = all_pairs_minmax(complete_extension(g, x))
            for eidx in fix_spanning_tree(g).edges:
                d = zero_edge_update(d, *g.edges[eidx])
            # zero-weight tree connects everything: all distances collapse
            assert np.all(d.values == 0.0)


class TestPureDP:
    def test_triangle(self, triangle):
        g, x = triangle
        assert mst_puredp(g, x)[0] == kruskal_mst(g, x) == 3.0

    def test_k4_uniform(self):
        kn = complete_graph(4)
        assert mst_puredp(kn, Weighting([5] * 6))[0] == 15.0

    def test_single_edge(self):
        g, x = parse_graph("2 1\n1 2 9\n")
        value, ops = mst_puredp(g, x)
        assert value == 9.0
        assert ops == puredp_op_counts(2, 1)
        value, ops = mst_puredp_naive(g, x)
        assert value == 9.0
        assert ops == naive_op_counts(2, 1)

    def test_single_vertex(self):
        g, x = parse_graph("1 0\n")
        assert mst_puredp(g, x) == (0.0, puredp_op_counts(1, 0))
        assert mst_puredp_naive(g, x) == (0.0, naive_op_counts(1, 0))

    def test_matches_bruteforce_random_small(self):
        for g, x in random_instances(40, seed=34, max_n=8, max_weight=100):
            value, _ = mst_puredp(g, x)
            assert value == bruteforce_mst(g, x)

    def test_naive_always_agrees(self):
        for g, x in random_instances(25, seed=35, max_n=12):
            assert mst_puredp(g, x)[0] == mst_puredp_naive(g, x)[0]

    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs())
    def test_matches_kruskal(self, gx):
        g, x = gx
        assert mst_puredp(g, x)[0] == kruskal_mst(g, x)

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs(max_n=7, max_weight=30))
    def test_zeroing_identity(self, gx):
        g, x = gx
        d = all_pairs_minmax(complete_extension(g, x))
        for idx, (u, v) in enumerate(g.edges):
            zeroed = list(x.values)
            zeroed[idx] = 0
            assert kruskal_mst(g, x) == kruskal_mst(g, Weighting(zeroed)) + d.dist(u, v)

    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs(max_weight=9999))
    def test_exact_sum_on_one_decimal_weights(self, gx):
        g, x = gx
        x = Weighting([w / 10 for w in x.values])
        expect = math.fsum(x.values[idx] for idx in kruskal_tree(g, x))
        assert mst_puredp(g, x)[0] == expect
        assert mst_puredp_naive(g, x)[0] == expect


class TestOpCounts:
    def test_matches_closed_form(self):
        for g, x in random_instances(15, seed=36, max_n=14):
            assert mst_puredp(g, x)[1] == puredp_op_counts(g.n, g.m)
            assert mst_puredp_naive(g, x)[1] == naive_op_counts(g.n, g.m)

    def test_independent_of_weighting(self):
        rng = random.Random(37)
        g = complete_graph(7)
        counts = {mst_puredp(g, Weighting([rng.randint(0, 99) for _ in range(g.m)]))[1]
                  for _ in range(5)}
        assert len(counts) == 1

    def test_closed_form_total_formula(self):
        # total = N + (n-2)K + (n-1) + (m-1) with N = n^2(n-1), K = 2n(n-1)
        for n in (2, 3, 5, 8, 16, 33):
            m = n * (n - 1) // 2
            big_n = n * n * (n - 1)
            big_k = 2 * n * (n - 1)
            expect = big_n + max(n - 2, 0) * big_k + (n - 1) + (m - 1)
            assert puredp_op_counts(n, m).total == expect

    def test_naive_strictly_larger_from_n3(self):
        for n in (3, 4, 8):
            m = n * (n - 1) // 2
            assert naive_op_counts(n, m).total > puredp_op_counts(n, m).total

    def test_cubic_vs_quartic_separation(self):
        totals = {n: puredp_op_counts(n, n * (n - 1) // 2).total for n in (8, 16, 32, 64)}
        naive = {n: naive_op_counts(n, n * (n - 1) // 2).total for n in (8, 16, 32, 64)}
        for n, t in totals.items():
            assert t <= 10 * n**3
        assert totals[64] / naive[64] < 0.2
