import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from minmaxmst import (
    GraphError,
    Weighting,
    all_pairs_minmax,
    complete_extension,
    minmax_distance_bruteforce,
    parse_graph,
    random_connected_graph,
    zero_edge_update,
)
from minmaxmst import distances, graphs
from conftest import random_instances
from strategies import weighted_graphs


def matrix_of(g, x):
    return all_pairs_minmax(complete_extension(g, x))


class TestAllPairsMinmax:
    def test_triangle_frozen_values(self, triangle):
        g, x = triangle
        d = matrix_of(g, x)
        # brute force over both 1-3 paths: min(3, max(1, 2)) = 2
        assert minmax_distance_bruteforce(g, x, 1, 3) == 2.0
        assert d.dist(1, 2) == 1.0
        assert d.dist(2, 3) == 2.0
        assert d.dist(1, 3) == 2.0

    def test_uniform_weights(self):
        g, x = parse_graph("4 6\n1 2 7\n1 3 7\n1 4 7\n2 3 7\n2 4 7\n3 4 7\n")
        d = matrix_of(g, x)
        off = ~np.eye(4, dtype=bool)
        assert np.all(d.values[off] == 7.0)

    def test_never_exceeds_pair_weight(self):
        rng = random.Random(3)
        for _ in range(20):
            g, x = random_connected_graph(rng.randint(2, 12), rng.random(), rng, 100)
            xbar = complete_extension(g, x)
            d = all_pairs_minmax(xbar)
            assert np.all(d.values <= xbar.values)

    def test_matches_bruteforce_exhaustive_small(self, small_graphs):
        rng = random.Random(4)
        for n in range(1, 6):
            for g in small_graphs[n]:
                x = Weighting([rng.randint(0, 9) for _ in range(g.m)])
                d = matrix_of(g, x)
                for u in range(1, n + 1):
                    for v in range(u, n + 1):
                        assert d.dist(u, v) == minmax_distance_bruteforce(g, x, u, v)

    def test_matches_bruteforce_random(self):
        for g, x in random_instances(20, seed=6, min_n=6, max_n=7, max_weight=40):
            d = matrix_of(g, x)
            for u in range(1, g.n + 1):
                for v in range(u + 1, g.n + 1):
                    assert d.dist(u, v) == minmax_distance_bruteforce(g, x, u, v)

    @settings(max_examples=80, deadline=None)
    @given(weighted_graphs())
    def test_max_triangle_inequality(self, gx):
        d = matrix_of(*gx).values
        n = d.shape[0]
        for k in range(n):
            assert np.all(d <= np.maximum.outer(d[:, k], d[k, :]))

    @settings(max_examples=50, deadline=None)
    @given(weighted_graphs(max_weight=20))
    def test_entries_come_from_inputs(self, gx):
        g, x = gx
        allowed = {0.0, *x.values}
        assert set(matrix_of(g, x).values.flat) <= allowed

    def test_monotone_in_weights(self):
        rng = random.Random(7)
        for _ in range(30):
            g, x = random_connected_graph(rng.randint(2, 10), rng.random(), rng, 50)
            lowered = list(x.values)
            idx = rng.randrange(g.m)
            lowered[idx] = rng.randint(0, int(lowered[idx]))
            d_hi = matrix_of(g, x)
            d_lo = matrix_of(g, Weighting(lowered))
            assert np.all(d_lo.values <= d_hi.values)

    def test_rejects_malformed_matrix(self):
        with pytest.raises(GraphError, match="symmetric"):
            all_pairs_minmax(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(GraphError, match="diagonal"):
            all_pairs_minmax(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(GraphError, match="nonnegative"):
            all_pairs_minmax(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("build", [all_pairs_minmax, graphs.ExtendedWeighting])
    def test_nan_entries_are_not_nonnegative(self, build):
        """A symmetric NaN is judged like a NaN weight; an unmatched one is still asymmetry."""
        nan = float("nan")
        with pytest.raises(GraphError, match="^matrix entries must be nonnegative$"):
            build([[0.0, nan], [nan, 0.0]])
        with pytest.raises(GraphError, match="^matrix must be symmetric$"):
            build([[0.0, nan], [1.0, 0.0]])
        with pytest.raises(GraphError, match="^matrix diagonal must be zero$"):
            build([[nan, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("build", [all_pairs_minmax, graphs.ExtendedWeighting])
    @pytest.mark.parametrize("table", [[["0", "1"], ["1", "0"]], [[0, True], [True, 0]],
                                       [[0.0, None], [None, 0.0]], np.array([[False, True], [True, False]])])
    def test_non_numeric_entries_are_refused(self, build, table):
        with pytest.raises(GraphError, match="^matrix entries must be numbers$"):
            build(table)

    @pytest.mark.parametrize("build", [all_pairs_minmax, graphs.ExtendedWeighting])
    def test_ragged_table_is_not_square(self, build):
        with pytest.raises(GraphError, match="^expected a square matrix, got rows of unequal lengths$"):
            build([[0, 1], [1]])

    @pytest.mark.parametrize("build", [all_pairs_minmax, graphs.ExtendedWeighting])
    def test_ints_past_the_float_range_read_as_infinities(self, build):
        """As in a Weighting: 10**400 reads as inf, which a table may hold, and -10**400 as -inf."""
        assert build([[0, 10**400], [10**400, 0]]).values[0, 1] == math.inf
        assert build(np.array([[0, 10**400], [10**400, 0]], dtype=object)).values[0, 1] == math.inf
        with pytest.raises(GraphError, match="^matrix entries must be nonnegative$"):
            build([[0, -10**400], [-10**400, 0]])

    def test_ranked_sweep_equals_the_float_sweep(self):
        """The sweep runs on ranks; the float64 kernel on the same table is the reference.
        Non-edges are `inf`, as in Maggs-Plotkin, and rank last."""
        rng = random.Random(21)
        for k in range(40):
            g, x = random_connected_graph(rng.randint(1, 24), rng.random(), rng, 10**6)
            if k % 2:
                x = Weighting(rng.choice([0.0, -0.0, 0.5, rng.random(), 1e300]) for _ in range(g.m))
            table = graphs._extension_layout(g, x.array, 0.0, math.inf)
            expect = table.copy()
            distances._sweep(expect)
            assert np.array_equal(all_pairs_minmax(table).values, expect)

    def test_input_not_modified(self):
        g, x = parse_graph("4 4\n1 2 1\n2 3 2\n3 4 3\n1 4 4\n")
        xbar = complete_extension(g, x)
        table = np.array(xbar.values)
        before = table.copy()
        d = all_pairs_minmax(table)
        assert d.dist(1, 4) == 3.0 and table[0, 3] == 4.0
        assert np.array_equal(table, before)
        assert np.array_equal(all_pairs_minmax(xbar).values, d.values)
        assert np.array_equal(xbar.values, before)


class TestZeroEdgeUpdate:
    def test_triangle_frozen_values(self, triangle):
        g, x = triangle
        d = matrix_of(g, x)
        d2 = zero_edge_update(d, 1, 3)
        # oracle: recompute from scratch on the zeroed weighting
        fresh = matrix_of(g, Weighting([1, 0, 2]))
        assert np.array_equal(d2.values, fresh.values)
        assert d2.dist(1, 3) == 0.0
        assert d2.dist(1, 2) == 1.0
        assert d2.dist(2, 3) == 1.0  # min(2, max(2,0), max(1,0))

    def test_zeroing_zero_distance_is_identity(self, triangle):
        g, x = triangle
        d = zero_edge_update(matrix_of(g, x), 1, 2)
        again = zero_edge_update(d, 1, 2)
        assert np.array_equal(d.values, again.values)

    def test_zeroed_pair_distance_always_zero(self):
        rng = random.Random(8)
        for _ in range(20):
            g, x = random_connected_graph(rng.randint(2, 10), 1.0, rng, 30)
            d = matrix_of(g, x)
            a, b = rng.sample(range(1, g.n + 1), 2)
            assert zero_edge_update(d, a, b).dist(a, b) == 0.0

    def test_matches_fresh_recomputation(self):
        rng = random.Random(9)
        for _ in range(15):
            g, x = random_connected_graph(rng.randint(2, 12), 1.0, rng, 100)
            d = matrix_of(g, x)
            for idx, (a, b) in enumerate(g.edges):
                zeroed = list(x.values)
                zeroed[idx] = 0
                expect = matrix_of(g, Weighting(zeroed))
                got = zero_edge_update(d, a, b)
                assert np.array_equal(got.values, expect.values)

    def test_matches_fresh_recomputation_every_pair(self):
        # also pairs that are not edges of the source graph
        rng = random.Random(10)
        for _ in range(8):
            g, x = random_connected_graph(rng.randint(2, 9), rng.random(), rng, 50)
            xbar = complete_extension(g, x)
            d = all_pairs_minmax(xbar)
            for a in range(1, g.n + 1):
                for b in range(a + 1, g.n + 1):
                    table = np.array(xbar.values)
                    table[a - 1, b - 1] = table[b - 1, a - 1] = 0.0
                    expect = all_pairs_minmax(table)
                    got = zero_edge_update(d, a, b)
                    assert np.array_equal(got.values, expect.values)

    def test_input_not_modified(self, triangle):
        g, x = triangle
        d = matrix_of(g, x)
        before = d.values.copy()
        zero_edge_update(d, 1, 3)
        assert np.array_equal(d.values, before)

    def test_rejects_bad_vertices(self, triangle):
        g, x = triangle
        d = matrix_of(g, x)
        with pytest.raises(GraphError, match="distinct"):
            zero_edge_update(d, 2, 2)
        with pytest.raises(GraphError, match="out of range"):
            zero_edge_update(d, 1, 4)


class TestMinmaxBruteforce:
    def test_triangle(self, triangle):
        g, x = triangle
        assert minmax_distance_bruteforce(g, x, 1, 3) == 2.0

    def test_same_vertex(self, triangle):
        g, x = triangle
        assert minmax_distance_bruteforce(g, x, 2, 2) == 0.0

    def test_tree_edge_unique_path(self):
        g, x = parse_graph("3 2\n1 2 5\n2 3 8\n")
        assert minmax_distance_bruteforce(g, x, 1, 2) == 5.0
        assert minmax_distance_bruteforce(g, x, 1, 3) == 8.0

    def test_out_of_range(self, triangle):
        g, x = triangle
        with pytest.raises(GraphError, match="out of range"):
            minmax_distance_bruteforce(g, x, 1, 9)


@pytest.mark.parametrize("call", [
    lambda g, x, u, v: zero_edge_update(all_pairs_minmax(complete_extension(g, x)), u, v).values.tolist(),
    lambda g, x, u, v: all_pairs_minmax(complete_extension(g, x)).dist(u, v),
    minmax_distance_bruteforce,
])
def test_vertices_are_integers(call, triangle):
    """A vertex is read through `operator.index`: a float names no vertex, a NumPy integer does."""
    g, x = triangle
    with pytest.raises(GraphError, match=r"^vertex 1\.5 is not an integer$"):
        call(g, x, 1.5, 2)
    with pytest.raises(GraphError, match=r"^vertex '2' is not an integer$"):
        call(g, x, 1, "2")
    with pytest.raises(GraphError, match=r"^vertex out of range: \{0,1\} for n=3$"):
        call(g, x, 0, 1)
    assert call(g, x, np.int64(1), np.uint8(3)) == call(g, x, 1, 3)
