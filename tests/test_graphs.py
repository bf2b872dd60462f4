import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from minmaxmst import (
    Graph,
    GraphError,
    ParseError,
    SpanningTree,
    Weighting,
    compile_mst_circuit,
    complete_extension,
    complete_graph,
    fix_spanning_tree,
    format_edge_list,
    kruskal_mst,
    mst_puredp,
    parse_graph,
    random_connected_graph,
    validate_spanning_tree,
)
from minmaxmst import graphs
from conftest import TRIANGLE
from strategies import weighted_graphs


class TestParse:
    def test_transcribes_input(self):
        g, x = parse_graph(TRIANGLE)
        assert g.n == 3
        assert g.edges == ((1, 2), (1, 3), (2, 3))
        assert x.values == (1.0, 3.0, 2.0)

    def test_minimal_graph(self):
        g, x = parse_graph("2 1\n1 2 0")
        assert g.n == 2
        assert x.values == (0.0,)

    def test_single_vertex(self):
        g, x = parse_graph("1 0\n")
        assert g.n == 1 and g.m == 0

    def test_negative_weight_reports_line(self):
        with pytest.raises(ParseError, match="negative weight on line 3"):
            parse_graph("3 2\n1 2 1\n1 3 -4")

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\n3 2\n# another\n1 2 1\n\n1 3 2\n"
        g, x = parse_graph(text)
        assert g.edges == ((1, 2), (1, 3))

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("", "missing"),
            ("3\n1 2 1", "header"),
            ("x y\n", "non-integer header"),
            ("0 0\n", "vertex count"),
            ("2 1\n1 2\n", "expected 'u v w' on line 2"),
            ("2 1\n1 2 1\n2 1 2\n", "extra edge on line 3"),
            ("3 3\n1 2 1\n1 3 1\n", "expected 3 edges, got 2"),
            ("2 1\n1 1 2\n", "self-loop on line 2"),
            ("2 2\n1 2 1\n2 1 3\n", "duplicate edge on line 3"),
            ("2 1\n1 3 1\n", "out of range on line 2"),
            ("2 1\n1 2 inf\n", "non-finite weight on line 2"),
            ("2 1\n1 2 nan\n", "negative weight on line 2"),
            ("2 1\n1 2 abc\n", "invalid weight on line 2"),
            ("2 1\n1.5 2 1\n", "non-integer vertex id on line 2"),
        ],
    )
    def test_rejects_malformed(self, text, needle):
        with pytest.raises(ParseError, match=needle):
            parse_graph(text)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            parse_graph("4 2\n1 2 1\n3 4 1\n")

    def test_too_few_edges_rejected_at_header(self):
        with pytest.raises(GraphError, match="disconnected.*line 1"):
            parse_graph("3000000 0\n")

    def test_roundtrip_canonical(self):
        for text in (TRIANGLE, "2 1\n1 2 0\n", "1 0\n", "3 2\n1 2 0.5\n2 3 1000000\n"):
            g, x = parse_graph(text)
            assert format_edge_list(g, x) == text

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(25):
            g, x = random_connected_graph(rng.randint(1, 12), rng.random(), rng)
            g2, x2 = parse_graph(format_edge_list(g, x))
            assert g2 == g and x2 == x


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate_even_flipped(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(2, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(1, 3)])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError, match="disconnected"):
            Graph(5, [(1, 2), (2, 3), (1, 3), (4, 5)])

    def test_checks_edges_after_it_is_connected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, [(1, 2), (2, 3), (1, 3), (3, 1)])

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_normalizes_pair_order(self):
        g = Graph(3, [(2, 1), (3, 2)])
        assert g.edges == ((1, 2), (2, 3))

    def test_graphs_share_pair_tuples(self):
        g = Graph(3, [(2, 1), (3, 2)])
        h, _ = parse_graph("3 2\n1 2 5\n3 2 1\n")
        assert all(e is f for e, f in zip(g.edges, h.edges))
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(1, 99999)])
        assert (1, 99999) not in graphs._PAIRS

    def test_adjacency_sorted(self):
        g = Graph(4, [(1, 4), (1, 2), (2, 4), (3, 4)])
        assert g.adjacency[4] == (1, 2, 3)

    def test_complete_graph(self):
        g = complete_graph(4)
        assert g.m == 6 and g.n == 4

    def test_weighting_rejects_negative(self):
        with pytest.raises(GraphError):
            Weighting([1.0, -2.0])


class TestCompleteExtension:
    def test_path_nonedge_gets_max(self):
        g, x = parse_graph("3 2\n1 2 5\n2 3 7\n")
        xbar = complete_extension(g, x)
        assert xbar.weight(1, 3) == 7.0
        assert xbar.weight(1, 2) == 5.0
        assert np.all(np.diagonal(xbar.values) == 0)

    def test_triangle_unchanged(self):
        g, x = parse_graph(TRIANGLE)
        xbar = complete_extension(g, x)
        assert xbar.weight(1, 2) == 1 and xbar.weight(1, 3) == 3 and xbar.weight(2, 3) == 2

    def test_star_nonedges(self):
        g, x = parse_graph("4 3\n1 2 2\n1 3 9\n1 4 4\n")
        xbar = complete_extension(g, x)
        assert xbar.weight(2, 3) == xbar.weight(2, 4) == xbar.weight(3, 4) == 9.0

    def test_single_vertex(self):
        g, x = parse_graph("1 0\n")
        assert complete_extension(g, x).values.shape == (1, 1)

    def test_length_mismatch(self):
        g, _ = parse_graph(TRIANGLE)
        with pytest.raises(GraphError):
            complete_extension(g, Weighting([1.0]))

    def test_preserves_mst_weight_exhaustive_small(self, small_graphs):
        rng = random.Random(11)
        for n in range(1, 6):
            for g in small_graphs[n]:
                x = Weighting([rng.randint(0, 50) for _ in range(g.m)])
                xbar = complete_extension(g, x)
                kn = complete_graph(g.n)
                xk = Weighting([xbar.weight(u, v) for u, v in kn.edges])
                assert kruskal_mst(kn, xk) == kruskal_mst(g, x)

    def test_preserves_mst_weight_random(self):
        rng = random.Random(12)
        for _ in range(40):
            g, x = random_connected_graph(rng.randint(2, 32), rng.random(), rng)
            xbar = complete_extension(g, x)
            kn = complete_graph(g.n)
            xk = Weighting([xbar.weight(u, v) for u, v in kn.edges])
            assert kruskal_mst(kn, xk) == kruskal_mst(g, x)


class TestFixSpanningTree:
    def test_triangle_discovery_order(self, triangle):
        g, _ = triangle
        t = fix_spanning_tree(g)
        assert [g.edges[i] for i in t.edges] == [(1, 2), (2, 3)]

    def test_path(self):
        g, _ = parse_graph("3 2\n1 2 1\n2 3 1\n")
        assert [g.edges[i] for i in fix_spanning_tree(g).edges] == [(1, 2), (2, 3)]

    def test_tree_input_returns_itself(self):
        g, _ = parse_graph("5 4\n1 3 1\n3 5 1\n2 5 1\n4 1 1\n")
        assert sorted(fix_spanning_tree(g).edges) == [0, 1, 2, 3]

    def test_repeated_calls_identical(self):
        g = complete_graph(6)
        assert fix_spanning_tree(g) == fix_spanning_tree(g)
        assert fix_spanning_tree(g) == fix_spanning_tree(complete_graph(6))

    def test_solved_graph_is_freed(self):
        g, x = random_connected_graph(12, 0.5, random.Random(6))
        assert mst_puredp(g, x)[0] == kruskal_mst(g, x)
        compile_mst_circuit(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs(max_n=9))
    def test_is_valid_spanning_tree(self, gx):
        g, _ = gx
        validate_spanning_tree(g, fix_spanning_tree(g))


class TestValidateSpanningTree:
    def test_wrong_size(self, triangle):
        g, _ = triangle
        with pytest.raises(GraphError, match="needs 2 edges"):
            validate_spanning_tree(g, SpanningTree([0]))

    def test_cycle_rejected(self):
        g = complete_graph(4)
        with pytest.raises(GraphError, match="cycle"):
            validate_spanning_tree(g, SpanningTree([0, 1, 3]))  # 12,13,23

    def test_repeat_rejected(self, triangle):
        g, _ = triangle
        with pytest.raises(GraphError, match="repeats"):
            validate_spanning_tree(g, SpanningTree([0, 0]))

    def test_out_of_range(self, triangle):
        g, _ = triangle
        with pytest.raises(GraphError, match="out of range"):
            validate_spanning_tree(g, SpanningTree([0, 9]))
