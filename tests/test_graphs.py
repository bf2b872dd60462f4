import gc
import random
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings

from minmaxmst import (
    Graph,
    GraphError,
    ParseError,
    SpanningTree,
    Weighting,
    all_pairs_minmax,
    compile_mst_circuit,
    complete_extension,
    complete_graph,
    fix_spanning_tree,
    format_edge_list,
    kruskal_mst,
    maggs_plotkin_mst,
    mst_puredp,
    parse_graph,
    random_connected_graph,
    validate_spanning_tree,
)
from minmaxmst import graphs
from conftest import TRIANGLE, small_graphs_of_every_shape
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

    def test_roundtrip_equal_with_equal_hashes(self):
        rng = random.Random(8)
        for g in small_graphs_of_every_shape(8) + [complete_graph(256)]:
            x = Weighting(rng.choice((0, -0.0, 0.1, 7.5, 1e300)) for _ in range(g.m))
            g2, x2 = parse_graph(format_edge_list(g, x))
            assert (g2, x2) == (g, x) and hash(g2) == hash(g) and hash(x2) == hash(x)


# (reason, edges of a 3-vertex graph, weights, index of the faulty edge)
EDGE_FAULTS = [
    ("self-loop", [(1, 2), (2, 2), (2, 3)], [1, 1, 1], 1),
    ("vertex id out of range", [(1, 2), (2, 3), (3, 4)], [1, 1, 1], 2),
    ("vertex id out of range", [(0, 1), (1, 2), (2, 3)], [1, 1, 1], 0),
    ("duplicate edge", [(1, 2), (2, 3), (2, 1)], [1, 1, 1], 2),
    ("negative weight", [(1, 2), (2, 3), (1, 3)], [1, 2, -1], 2),
    ("negative weight", [(1, 2), (2, 3), (1, 3)], [1, float("nan"), 1], 1),
    ("non-finite weight", [(1, 2), (2, 3), (1, 3)], [float("inf"), 1, 1], 0),
]


class TestEdgeFaults:
    @pytest.mark.parametrize("reason,edges,weights,bad", EDGE_FAULTS)
    def test_graph_weighting_and_parser_agree(self, reason, edges, weights, bad):
        with pytest.raises(GraphError) as direct:
            Graph(3, edges)
            Weighting(weights)
        assert direct.value.args[0] == reason and direct.value.edge == bad
        assert str(direct.value) == f"{reason} at edge index {bad}"
        # a comment and a blank line before each edge: edge i sits on line 3i + 5
        text = "# three vertices\n3 3\n" + "".join(
            f"# edge {i}\n\n{u} {v} {w}\n" for i, ((u, v), w) in enumerate(zip(edges, weights))
        )
        with pytest.raises(ParseError) as parsed:
            parse_graph(text)
        assert str(parsed.value) == f"{reason} on line {3 * bad + 5}"

    @pytest.mark.parametrize(
        "text,message",
        [
            # read-time faults first: syntax, then the edge count
            ("3 3\n1 1 -1\n1 2 x\n2 3 1\n", "invalid weight on line 3"),
            ("2 1\n1 1 -1\n1 2 1\n", "unexpected extra edge on line 3"),
            ("3 3\n1 1 -1\n1 2 1\n", "expected 3 edges, got 2"),
            # then the first structural fault, even after a weight fault
            ("3 3\n1 2 -1\n2 3 inf\n3 3 1\n", "self-loop on line 4"),
            ("3 3\n1 2 1\n2 9 1\n1 1 1\n", "vertex id out of range on line 3"),
            ("3 3\n1 2 -1\n2 3 1\n3 2 1\n", "duplicate edge on line 4"),
            # then the first weight fault
            ("3 3\n1 2 1\n2 3 inf\n1 3 -1\n", "non-finite weight on line 3"),
        ],
    )
    def test_precedence_of_several_faults(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_graph(text)
        assert str(info.value) == message

    def test_disconnected_before_weight_faults(self):
        with pytest.raises(GraphError, match="^disconnected graph$"):
            parse_graph("5 4\n1 2 -1\n2 3 1\n1 3 1\n4 5 1\n")


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

    def test_too_few_edges_build_nothing_of_size_n(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="^disconnected graph$"):
                Graph(10**6, [(1, 2)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_checks_edges_after_it_is_connected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, [(1, 2), (2, 3), (1, 3), (3, 1)])

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_vertex_count_worded_as_the_header_check(self):
        with pytest.raises(GraphError, match=r"^vertex count must be >= 1$"):
            Graph(0, [])
        with pytest.raises(ParseError, match=r"^vertex count must be >= 1 on line 1$"):
            parse_graph("0 0\n")

    def test_normalizes_pair_order(self):
        g = Graph(3, [(2, 1), (3, 2)])
        assert g.edges == ((1, 2), (2, 3))

    def test_keeps_only_its_ends(self):
        g, x = parse_graph(TRIANGLE)
        assert {f.name: type(getattr(g, f.name)) for f in fields(g)} == {"n": int, "_ends": np.ndarray}
        assert {f.name: type(getattr(x, f.name)) for f in fields(x)} == {"array": np.ndarray}
        assert repr(complete_graph(3)) == "Graph(n=3, edges=((1, 2), (1, 3), (2, 3)))"

    def test_freed_graphs_return_their_memory(self):
        """Five sparse graphs on 20,000 vertices, each built and freed, leave nothing behind."""
        rng = random.Random(4)
        n = 20_000
        edge_lists = []  # made before tracing starts: a path plus about 40,000 random chords each
        for _ in range(5):
            chords = {tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(2 * n)}
            edge_lists.append([(v, v + 1) for v in range(1, n)] + [(u, v) for u, v in chords if v > u + 1])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for edges in edge_lists:
                assert Graph(n, edges).m > 55_000
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert kept < 2**20

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

    def test_weight_and_dist_check_their_vertices(self):
        g, x = parse_graph(TRIANGLE)
        xbar = complete_extension(g, x)
        with pytest.raises(GraphError, match=r"^vertex out of range: \{0,1\} for n=3$"):
            xbar.weight(0, 1)  # would wrap to the last row
        with pytest.raises(GraphError, match=r"^vertex out of range: \{-1,2\} for n=3$"):
            all_pairs_minmax(xbar).dist(-1, 2)
        with pytest.raises(GraphError, match=r"^vertex out of range: \{4,1\} for n=3$"):
            xbar.weight(4, 1)

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


class TestWeighting:
    @pytest.mark.parametrize("values", [[], [3], [0, 1.5, -0.0, 2**53 + 1, 1e300, 5e-324], range(10),
                                        (w / 10 for w in range(5))])
    def test_array_is_read_only_and_equals_values(self, values):
        x = Weighting(values)
        assert x.array.dtype == np.float64 and x.array.shape == (len(x),)
        assert x.array.tolist() == list(x.values)
        assert np.signbit(x.array).tolist() == [np.signbit(w) for w in x.values]
        with pytest.raises(ValueError, match="read-only"):
            x.array[:1] = 7.0

    def test_array_is_not_part_of_equality_or_repr(self):
        x, y = Weighting([1, 2]), Weighting((1.0, 2.0))
        assert x == y and hash(x) == hash(y) and x.array is not y.array
        assert repr(x) == "Weighting(values=(1.0, 2.0))"
        zero, negative_zero = Weighting([0.0]), Weighting([-0.0])
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert x != Weighting([1, 2, 3]) and x != (1.0, 2.0)

    # (weights, reason, index of the first faulty weight): the first fault wins, whatever its kind
    MIXED_FAULTS = [
        ([1, float("nan"), float("inf")], "negative weight", 1),
        ([float("inf"), 1, -1], "non-finite weight", 0),
        ([-0.0, 2, float("inf"), float("nan"), -2], "non-finite weight", 2),
        ([0.0, -0.0, float("-inf"), float("inf")], "negative weight", 2),
        ([5, 4, -1e-300, float("nan")], "negative weight", 2),
    ]

    @pytest.mark.parametrize("weights,reason,bad", MIXED_FAULTS)
    def test_first_fault_reported(self, weights, reason, bad):
        with pytest.raises(GraphError) as exc:
            Weighting(weights)
        assert exc.value.args[0] == reason and exc.value.edge == bad
        edges = "".join(f"\n1 {v} {w}" for v, w in enumerate(weights, start=2))
        with pytest.raises(ParseError, match=f"^{reason} on line {bad + 2}$"):
            parse_graph(f"{len(weights) + 1} {len(weights)}{edges}\n")

    def test_negative_zero_accepted(self):
        x = Weighting([-0.0, 0.0])
        assert np.signbit(x.array).tolist() == [True, False]
        g, y = parse_graph("2 1\n1 2 -0\n")
        assert mst_puredp(g, y)[0] == 0.0


class TestEdgeEnds:
    """`Graph._ends`, the 0-based edge ends that every extension layout scatters through."""

    def test_ends_are_the_edges_less_one(self):
        for g in small_graphs_of_every_shape(31) + [complete_graph(256)]:
            ends = g._ends
            assert ends.shape == (2, g.m) and ends.dtype == np.min_scalar_type(g.n - 1)
            assert ends.T.tolist() == [[u - 1, v - 1] for u, v in g.edges]
            assert not ends.flags.writeable
        assert complete_graph(256)._ends.dtype == np.uint8
        assert complete_graph(257)._ends.dtype == np.uint16

    def test_built_once_and_freed_with_the_graph(self, monkeypatch):
        g = complete_graph(12)
        x = Weighting(range(g.m))
        built = []
        fromiter = np.fromiter
        monkeypatch.setattr(graphs.np, "fromiter", lambda *a, **k: built.append(1) or fromiter(*a, **k))
        ends = g._ends  # built by the constructor
        for use in (mst_puredp, mst_puredp, complete_extension, maggs_plotkin_mst,
                    lambda g, x: compile_mst_circuit(g)):
            use(g, x)
        assert g._ends is ends and built == []
        refs = weakref.ref(g), weakref.ref(ends)
        del g, ends
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestTableBudget:
    """A graph whose (n, n) table would pass `graphs._TABLE_BYTES` is refused before allocating."""

    BUDGET = r"over the 1,024-byte limit$"

    def test_every_table_builder_refuses(self, monkeypatch):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 1024)
        g = complete_graph(64)
        x = Weighting(range(g.m))  # 2,016 distinct weights: a uint16 rank table of 8,192 bytes
        with pytest.raises(GraphError, match=r"^graph too large: n=64 needs a 8,192-byte table, " + self.BUDGET):
            mst_puredp(g, x)
        for build in (lambda: complete_extension(g, x), lambda: maggs_plotkin_mst(g, x),
                      lambda: compile_mst_circuit(g)):
            with pytest.raises(GraphError, match=self.BUDGET):
                build()

    def test_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 1024)
        g = complete_graph(64)
        x = Weighting(range(g.m))
        monkeypatch.setattr(graphs.np, "full", lambda *a, **k: pytest.fail("allocated a table"))
        with pytest.raises(GraphError, match=self.BUDGET):
            mst_puredp(g, x)

    def test_tables_within_the_budget_are_built(self, monkeypatch):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 1024)
        g = complete_graph(32)  # 496 distinct weights: a uint16 rank table of 2,048 bytes
        x = Weighting(range(g.m))
        with pytest.raises(GraphError, match=self.BUDGET):
            mst_puredp(g, x)
        x = Weighting([w % 200 for w in range(g.m)])  # 200 levels: a uint8 table of 1,024 bytes
        assert mst_puredp(g, x)[0] == kruskal_mst(g, x)


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
