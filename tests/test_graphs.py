import gc
import hashlib
import math
import random
import re
import tracemalloc
import warnings
import weakref
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    hu_minmax_via_mst,
    kruskal_mst,
    kruskal_tree,
    maggs_plotkin_mst,
    mst_decomposition,
    mst_puredp,
    mst_puredp_naive,
    parse_graph,
    random_connected_graph,
    validate_spanning_tree,
    zero_edge_update,
)
from minmaxmst import graphs, solver
from conftest import TRIANGLE, small_graphs_of_every_shape
from strategies import SPECIAL_FLOATS, weighted_graphs


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
            ("2 -1\n", "edge count must be >= 0 on line 1"),
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


# tokens the vectorised reader and int()/float() might read apart, or the loop and loadtxt split apart
HAZARD_TOKENS = ("+1", "-0", "1.0", "1_0", "١", "1e400", "-1e400", "nan", "inf", "0x10", "007", ".5", "1e",
                 str(2**63 - 1), str(2**63), str(-2**63 - 1), "#", "# note", "-1", "2")
LINE_ENDS = ("\r", "\x0c", "\x0b", "\x1c", "\x85", " ")
SPACES = ("\t", "  ", "\x0c", "\xa0")
EXTRA_LINES = ("", "# comment", "  # indented comment", " \t ", "#", "# \x0c 1 2 3")


@st.composite
def edge_list_texts(draw):
    """A valid edge list, as the reader takes it or with hazards: odd tokens, comments, spaces and line ends.

    Comment and blank lines may precede the header; `rarity` sets how seldom
    each line, token and line end gets a hazard (0: none), so both the
    reader's texts and the loop's alone are drawn often.
    """
    g, x = draw(weighted_graphs(min_n=1, max_n=5))
    rarity = draw(st.sampled_from((0, 0, 3, 12)))

    def hazard(choices, usual):
        return draw(st.sampled_from(choices)) if rarity and draw(st.integers(0, rarity)) == 0 else usual

    end = draw(st.sampled_from(("\n", "\r\n")))
    lines = draw(st.lists(st.sampled_from(EXTRA_LINES), max_size=2))
    for line in format_edge_list(g, x).splitlines():
        tokens = [hazard(HAZARD_TOKENS, t) for t in line.split()] + [hazard(HAZARD_TOKENS, "")]
        lines.append(hazard(SPACES, draw(st.sampled_from(("", " ")))) + hazard(SPACES, " ").join(tokens).strip(" "))
        lines.append(hazard(EXTRA_LINES, None))
    return "".join(line + hazard(LINE_ENDS, end) for line in lines if line is not None)


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphError as exc:
        return type(exc), str(exc)


class TestReader:
    """The vectorised reader in `parse_graph` against the line loop it falls back to."""

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_reader_and_loop_agree(self, text):
        loop = _outcome(graphs._parse_lines, text)
        assert _outcome(parse_graph, text) == loop
        try:
            read = graphs._read_edge_list(text)
        except ValueError:  # text it does not take goes to the loop
            return
        assert read == loop  # what the reader takes, the loop takes, and reads the same
        assert [hash(a) for a in read] == [hash(b) for b in loop]

    @pytest.mark.parametrize("text", [
        TRIANGLE,
        "3 3\n1\t2 1\n  1 3 3  \n\n2 3 2",
        "2 1\n1 2 -0\n",
        "3 2\n+1 002 1e3\n2 3 .5e-1\n",
    ])
    def test_reader_reads_without_the_loop(self, text, monkeypatch):
        expected = graphs._parse_lines(text)
        monkeypatch.setattr(graphs, "_parse_lines", lambda text: pytest.fail("ran the line loop"))
        assert parse_graph(text) == expected

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs(min_n=1, max_n=9, max_weight=10**6), st.booleans())
    def test_written_texts_read_without_the_loop(self, gx, tenths):
        """Every text `format_edge_list` writes, of integer or one-decimal weights, takes the vectorised pass."""
        g, x = gx
        if tenths:
            x = Weighting([w / 10 for w in x.values])
        text = format_edge_list(g, x)
        read = graphs._read_edge_list(text)  # raises on a text it leaves to the loop
        assert read == graphs._parse_lines(text) == (g, x)

    @pytest.mark.parametrize("text,copy", [
        ("# made by gen\n\n3 3\n1\t2 1\n  1 3 3  \n\n2 3 2", "3 3\n1\t2 1\n  1 3 3  \n\n2 3 2"),
        (TRIANGLE.replace("\n", "\r\n"), TRIANGLE),
    ], ids=["gen-style", "crlf-triangle"])
    def test_loop_texts_read_as_their_header_first_copy(self, text, copy):
        """A header after comment or blank lines, or "\\r\\n" breaks, take the loop, which reads what the
        vectorised pass reads from the same text with its header on line 1 and "\\n" breaks."""
        with pytest.raises(ValueError):
            graphs._read_edge_list(text)
        read, want = parse_graph(text), graphs._read_edge_list(copy)
        assert read == want
        assert [hash(a) for a in read] == [hash(b) for b in want]

    def test_k256_read_without_the_loop(self, monkeypatch):
        g = complete_graph(256)
        x = Weighting(range(g.m))
        monkeypatch.setattr(graphs, "_parse_lines", lambda text: pytest.fail("ran the line loop"))
        assert parse_graph(format_edge_list(g, x)) == (g, x)

    @pytest.mark.parametrize("text,message", [
        ("2 1\n1 2 3 # note\n", "expected 'u v w' on line 2"),
        ("2 1\n1 2\x0c3\n", "expected 'u v w' on line 2"),
        ("2 1\n1 2 3\r\n", None),
        ("2 1\x0c1 2 3\n", None),
        ("2\x0c1\n1 2 3\n", "expected header 'n m' on line 1"),
        ("2 1\n1_0 2 3\n", "vertex id out of range on line 2"),
        ("2 1\n١ 2 3\n", None),
        ("2 1\n1.0 2 3\n", "non-integer vertex id on line 2"),
        ("2 1\n1.5 2 3\n", "non-integer vertex id on line 2"),
        ("2 1\n1e0 2 3\n", "non-integer vertex id on line 2"),
        ("2 1\n1 2 0x10\n", "invalid weight on line 2"),
        ("2 1\n1 2 1e400\n", "non-finite weight on line 2"),
        ("2 1\n1 9223372036854775808 3\n", "vertex id out of range on line 2"),
    ])
    def test_hazards_as_the_loop_reads_them(self, text, message):
        if message is None:
            assert parse_graph(text) == graphs._parse_lines(text)
        else:
            with pytest.raises(ParseError, match=f"^{message}$"):
                parse_graph(text)

    @pytest.mark.parametrize("text", ["2 1\n1.5 2 3\n", "2 1\n1e0 2 3\n", "2 1\n1 2.9 3\n", "2 1\n1 2 3\n"])
    def test_ids_read_through_a_float_go_to_the_loop(self, text, monkeypatch):
        expected = _outcome(graphs._parse_lines, text)
        loops = _loadtxt_before_numpy_2_3(monkeypatch)
        assert _outcome(parse_graph, text) == expected
        assert loops == [text]


def _loadtxt_before_numpy_2_3(monkeypatch) -> list[str]:
    """Make np.loadtxt read the ids through a float, warn, and truncate, as numpy 1.23 to 2.2 do.

    Each field is read as float64 in its own shape, so the ("uv", int64, 2)
    field is read and the warning is raised.  Returns the list of texts
    that `_parse_lines` is then run on.
    """
    loadtxt, parse_lines, loops = np.loadtxt, graphs._parse_lines, []

    def read_through_a_float(fh, dtype, **kwargs):
        rows = loadtxt(fh, [(name, np.float64, dtype[name].shape) for name in dtype.names], **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return rows.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", read_through_a_float)
    monkeypatch.setattr(graphs, "_parse_lines", lambda text: loops.append(text) or parse_lines(text))
    return loops


def _loop_fault(n, edges):
    """The first edge fault as (reason, index), by the per-edge loop `Graph` ran before it checked arrays."""
    seen = set()
    for i, (u, v) in enumerate(edges):
        u, v = min(u, v), max(u, v)
        if u == v:
            return "self-loop", i
        if u < 1 or v > n:
            return "vertex id out of range", i
        if (u, v) in seen:
            return "duplicate edge", i
        seen.add((u, v))
    return None


VERTEX_IDS = st.one_of(st.integers(-1, 7), st.sampled_from([2**63 - 1, 2**63, 2**70, -2**63, -2**63 - 1]))


class TestGraphOnArrays:
    """`Graph` checks its edges on arrays, and refuses what the per-edge loop refused, with the same message."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 6), st.lists(st.tuples(VERTEX_IDS, VERTEX_IDS), max_size=12))
    def test_first_fault_as_the_loop_names_it(self, n, edges):
        fault = _loop_fault(n, edges)
        if fault is None and len(graphs._forest(n, *np.array(edges, np.int64).reshape(-1, 2).T)) < n - 1:
            fault = ("disconnected graph", None)
        if fault is None:
            g = Graph(n, edges)
            assert g.edges == tuple((min(e), max(e)) for e in edges)
            assert g == Graph(n, np.array(edges)) and hash(g) == hash(Graph(n, np.array(edges)))
        else:
            with pytest.raises(GraphError) as exc:
                Graph(n, edges)
            assert (exc.value.args[0], exc.value.edge) == fault

    @pytest.mark.parametrize("n,edges,reason,bad", [
        (3, [(1, 2), (2, 2**70)], "vertex id out of range", 1),
        (3, [(1, 2), (2**70, 2**70)], "self-loop", 1),
        (3, [(1, 2), (2, 1), (-2**64, 1)], "duplicate edge", 1),
        (3, [(1, 2), (2**63, 1), (2, 1)], "vertex id out of range", 1),
        (3, [(2**64, 2**65)], "vertex id out of range", 0),
        (2**40, [(1, 2), (2**39, 2**40), (2**40, 2**39)], "duplicate edge", 2),
        (2**70, [(1, 2**69), (2**69, 1)], "duplicate edge", 1),
        # no faulty edge: the search reached for an id past int64 or n >= 2**31 finds too few edges
        (2**64, [(1, 2**63)], "disconnected graph", None),
        (2**40, [(1, 2)], "disconnected graph", None),
    ])
    def test_ids_past_int64_and_huge_n(self, n, edges, reason, bad):
        with pytest.raises(GraphError) as exc:
            Graph(n, edges)
        assert (exc.value.args[0], exc.value.edge) == (reason, bad)

    @pytest.mark.parametrize("edges,bad", [
        ([("1", "2"), ("2", "3")], 0),
        ([(1, 2), (2, "3")], 1),
        (np.array([[1.0, 2.0], [2.0, 3.0]]), 0),
        ([(1, 2), (2, 3.0)], 1),
    ])
    def test_non_integer_ids_are_refused(self, edges, bad):
        """An id that is not an integer is not read as one: no string parsed, no float cast, however integral."""
        with pytest.raises(GraphError) as exc:
            Graph(3, edges)
        assert (exc.value.args[0], exc.value.edge) == ("non-integer vertex id", bad)

    def test_any_iterable_of_pairs(self):
        g = Graph(3, [(2, 1), (3, 2)])
        for edges in (iter([(1, 2), (2, 3)]), [[2, 1], [3, 2]], np.array([[1, 2], [2, 3]], np.uint8), ((1, 2), (3, 2))):
            assert Graph(3, edges) == g
        with pytest.raises(ValueError):
            Graph(3, [(1, 2, 3), (2, 3, 1)])


class TestWeightingArrays:
    """A float64 ndarray is taken as it is; the weighting is the one its values give."""

    @pytest.mark.parametrize("values", [[], [0.0, -0.0, 5e-324, 1e300], [1.5, float("nan"), 2], [3, float("inf")],
                                        [2, -1, float("nan")]])
    def test_array_and_values_agree(self, values):
        arr = np.array(values, dtype=np.float64)
        assert _outcome(Weighting, arr) == _outcome(Weighting, values)

    def test_array_is_copied(self):
        arr = np.array([1.0, 2.0, 3.0])[::-1]
        x = Weighting(arr)
        arr[...] = 9.0
        assert x.values == (3.0, 2.0, 1.0) and x.array.flags.c_contiguous and not x.array.flags.writeable
        assert arr.flags.writeable


# (reason, edges of a 3-vertex graph, weights, index of the faulty edge)
ITER_EDGE = iter((2, 3))  # never consumed: Graph names it before unpacking it
EDGE_FAULTS = [
    ("self-loop", [(1, 2), (2, 2), (2, 3)], [1, 1, 1], 1),
    ("vertex id out of range", [(1, 2), (2, 3), (3, 4)], [1, 1, 1], 2),
    ("vertex id out of range", [(0, 1), (1, 2), (2, 3)], [1, 1, 1], 0),
    ("duplicate edge", [(1, 2), (2, 3), (2, 1)], [1, 1, 1], 2),
    ("negative weight", [(1, 2), (2, 3), (1, 3)], [1, 2, -1], 2),
    ("negative weight", [(1, 2), (2, 3), (1, 3)], [1, float("nan"), 1], 1),
    ("non-finite weight", [(1, 2), (2, 3), (1, 3)], [float("inf"), 1, 1], 0),
    ("non-integer vertex id", [(1, 2), (2.5, 3), (1, 3)], [1, 1, 1], 1),
    # a bool is no vertex id, though numpy reads it as an int among ints; the parser reads "True" as no integer
    ("non-integer vertex id", [(1, 2), (True, 3), (1, 3)], [1, 1, 1], 1),
    ("non-integer vertex id", [(1, 2), (2, 3), (3, np.False_)], [1, 1, 1], 2),
    # a set has no order and an iterator no length: neither is a pair, and the text format has neither
    ("edge {1, 2} is not a pair of vertex ids", [{1, 2}, (2, 3), (1, 3)], [1, 1, 1], 0),
    (f"edge {ITER_EDGE!r} is not a pair of vertex ids", [(1, 2), ITER_EDGE, (1, 3)], [1, 1, 1], 1),
]


class TestEdgeFaults:
    @pytest.mark.parametrize("reason,edges,weights,bad", EDGE_FAULTS)
    def test_graph_weighting_and_parser_agree(self, reason, edges, weights, bad):
        with pytest.raises(GraphError) as direct:
            Graph(3, edges)
            Weighting(weights)
        assert direct.value.args[0] == reason and direct.value.edge == bad
        assert str(direct.value) == f"{reason} at edge index {bad}"
        if not all(isinstance(edge, tuple) for edge in edges):
            return  # no text holds a set or an iterator
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


RANK_VALUES = st.one_of(st.sampled_from((-0.0, 0.0, 1.0, 2.0, math.inf) + SPECIAL_FLOATS), st.floats(0, 1e300))


class TestRanks:
    """`graphs._ranks`, the one rank rule of the solvers, `all_pairs_minmax` and `evaluate`."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(RANK_VALUES, max_size=40), st.booleans())
    def test_levels_and_ranks(self, values, square):
        values = np.array(values)
        if square and len(values) % 2 == 0:
            values = values.reshape(2, -1)
        levels, ranks = graphs._ranks(values)
        assert np.all(np.diff(levels) > 0) and not np.signbit(levels).any()
        assert ranks.shape == values.shape and ranks.dtype == np.min_scalar_type(len(levels) - 1)
        assert np.array_equal(levels[ranks], values)  # -0.0 == 0.0
        flat_values, flat_ranks = values.ravel(), ranks.ravel()
        assert np.array_equal(flat_ranks[:, None] == flat_ranks, flat_values[:, None] == flat_values)

    def test_empty(self):
        levels, ranks = graphs._ranks(np.array([]))
        assert levels.shape == ranks.shape == (0,) and levels.dtype == np.float64

    @pytest.mark.parametrize("distinct,dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65537, np.uint32)])
    def test_dtype_for_the_top_index(self, distinct, dtype):
        values = np.arange(distinct, dtype=float)[::-1].repeat(2)
        levels, ranks = graphs._ranks(values)
        assert len(levels) == distinct and ranks.dtype == dtype and ranks[0] == distinct - 1


class TestBoundary:
    """`Graph`, `SpanningTree` and `ExtendedWeighting` refuse what is not an integer count, an iterable of
    pairs, an index or a square table, naming it."""

    @pytest.mark.parametrize("n", ["3", 3.0, True, None, np.float64(3)])
    def test_vertex_count_must_be_an_integer(self, n):
        with pytest.raises(GraphError) as exc:
            Graph(n, [(1, 2), (2, 3)])
        assert str(exc.value) == f"vertex count {n!r} is not an integer" and exc.value.edge is None

    def test_numpy_vertex_count(self):
        g = Graph(np.int64(3), [(1, 2), (2, 3)])
        assert type(g.n) is int and g == Graph(3, [(1, 2), (2, 3)])

    @pytest.mark.parametrize("edges,bad", [
        ([(1, 2, 3)], 0),
        ([1, 2], 0),
        ([(1, 2), (2, 3, 1)], 1),  # ragged: numpy builds no array
        ([(1, 2), (3,)], 1),
        ([(1, 2), 3], 1),
        (np.array([[1, 2, 3], [2, 3, 1]]), 0),
        (np.array([1, 2]), 0),
    ])
    def test_edges_must_be_pairs(self, edges, bad):
        with pytest.raises(GraphError) as exc:
            Graph(3, edges)
        assert exc.value.edge == bad
        assert str(exc.value) == f"edge {list(edges)[bad]!r} is not a pair of vertex ids at edge index {bad}"

    @pytest.mark.parametrize("edges", [None, np.int64(5)])
    def test_edges_must_be_iterable(self, edges):
        with pytest.raises(GraphError) as exc:
            Graph(3, edges)
        assert str(exc.value) == f"edge list {edges!r} is not an iterable of pairs" and exc.value.edge is None

    @pytest.mark.parametrize("table", [[[0, 1], [1]]])
    def test_ragged_table_is_not_square(self, table):
        with pytest.raises(GraphError, match="^expected a square matrix, got rows of unequal lengths$"):
            graphs.ExtendedWeighting(table)

    def test_rectangular_table_is_not_square(self):
        with pytest.raises(GraphError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            graphs.ExtendedWeighting(np.zeros((2, 3)))

    def test_sequences_and_array_rows_are_pairs(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4)])
        assert Graph(4, [[1, 2], range(2, 4), np.array([3, 4])]) == g
        assert Graph(4, [(1, 2), [2, 3], range(3, 5)]) == g
        with pytest.raises(GraphError) as exc:  # the fault search takes them as pairs too
            Graph(4, [range(1, 3), np.array([2, 3]), [3, 3]])
        assert (exc.value.args[0], exc.value.edge) == ("self-loop", 2)

    @pytest.mark.parametrize("edges,bad", [
        ([(True, 2)], 0),
        ([(1, 2), (2, np.True_)], 1),
        (np.array([[True, False]]), 0),
        (np.array([[1, 2], [True, 2]], dtype=object), 1),
    ])
    def test_bool_vertex_ids_are_refused(self, edges, bad):
        with pytest.raises(GraphError) as exc:
            Graph(2, edges)
        assert (exc.value.args[0], exc.value.edge) == ("non-integer vertex id", bad)

    @pytest.mark.parametrize("edges,bad", [([True], "True"), ([0, False], "False"), ([np.True_], repr(np.True_))])
    def test_bool_edge_indices_are_refused(self, edges, bad):
        with pytest.raises(GraphError, match=rf"^edge index {re.escape(bad)} is not an integer$"):
            SpanningTree(edges)


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

    def test_equals_the_rank_table_round_trip(self):
        """The direct layout is the rank table's `levels[table]` bit for bit, with +0.0 for every -0.0 weight."""
        rng = random.Random(13)
        cases = [(Graph(1, []), Weighting([])), (Graph(2, [(1, 2)]), Weighting([-0.0])),
                 (Graph(2, [(1, 2)]), Weighting([4.5]))]
        for _ in range(30):
            g, _ = random_connected_graph(rng.randint(2, 24), rng.random(), rng)
            cases.append((g, Weighting(rng.choice([-0.0, 0.0, 0.1, 2.0, 2.0, 7.5]) for _ in range(g.m))))
        cases.append((g, Weighting([-0.0] * g.m)))
        for g, x in cases:
            levels, table = solver._rank_table(g, x)
            values = complete_extension(g, x).values
            assert values.dtype == np.float64 and values.tobytes() == levels[table].tobytes()
            assert not np.signbit(values).any()

    def test_no_rank_round_trip(self, monkeypatch):
        g, x = random_connected_graph(12, 0.5, random.Random(14))
        expect = complete_extension(g, x).values
        monkeypatch.setattr(graphs, "_ranks", lambda *a, **k: pytest.fail("ranked the weights"))
        assert np.array_equal(complete_extension(g, x).values, expect)

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
        ([10**400, 1, 2], "non-finite weight", 0),  # past the float range, as inf
        ([1, -10**400, 10**400], "negative weight", 1),
    ]

    @pytest.mark.parametrize("weights,reason,bad", MIXED_FAULTS)
    def test_first_fault_reported(self, weights, reason, bad):
        with pytest.raises(GraphError) as exc:
            Weighting(weights)
        assert exc.value.args[0] == reason and exc.value.edge == bad
        edges = "".join(f"\n1 {v} {w}" for v, w in enumerate(weights, start=2))
        with pytest.raises(ParseError, match=f"^{reason} on line {bad + 2}$"):
            parse_graph(f"{len(weights) + 1} {len(weights)}{edges}\n")

    # (weights, index of the first value that is not a real number by type)
    NON_NUMERIC = [
        (["1.5"], 0),
        ([True], 0),
        ([1, "abc"], 1),
        ([2.0, 1, True], 2),
        ([1, None], 1),
        ([0, 1 + 2j], 1),
        ([b"1"], 0),
        (np.array(["1", "2"]), 0),
        (np.array([False, True]), 0),
    ]

    @pytest.mark.parametrize("weights,bad", NON_NUMERIC)
    def test_non_numeric_weight_refused(self, weights, bad):
        with pytest.raises(GraphError) as exc:
            Weighting(weights)
        assert exc.value.args[0] == "non-numeric weight" and exc.value.edge == bad

    def test_real_numbers_of_any_type_accepted(self):
        x = Weighting([1, 2**70, np.float32(0.5), np.uint8(7), Fraction(1, 4), Decimal("0.1")])
        assert x.values == (1.0, float(2**70), 0.5, 7.0, 0.25, 0.1)
        assert Weighting(np.arange(3, dtype=np.int8)).values == (0.0, 1.0, 2.0)

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

    def test_complete_extension_checks_its_float_table(self, monkeypatch):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 8192)
        g = complete_graph(64)
        x = Weighting([w % 200 for w in range(g.m)])  # 200 levels: a uint8 rank table of 4,096 bytes
        assert mst_puredp(g, x)[0] == kruskal_mst(g, x)
        monkeypatch.setattr(graphs.np, "full", lambda *a, **k: pytest.fail("allocated a table"))
        with pytest.raises(GraphError, match=r"^graph too large: n=64 needs a 32,768-byte table, over the 8,192-byte limit$"):
            complete_extension(g, x)  # its float64 table, not its rank table


class TestWorkBudget:
    """A solve whose closed-form op count would pass `graphs._WORK_OPS` is refused before allocating."""

    def test_every_solver_refuses_before_allocating(self, monkeypatch):
        g = complete_graph(16)
        x = Weighting(range(g.m))
        monkeypatch.setattr(graphs, "_WORK_OPS", 10_000)  # K_16: 10,694 pure ops, 57,734 naive
        monkeypatch.setattr(graphs.np, "full", lambda *a, **k: pytest.fail("allocated a table"))
        monkeypatch.setattr(graphs.Graph, "_tree", property(lambda g: pytest.fail("built the tree")))
        message = r"^graph too large: n=16 needs {} operations, over the 10,000-operation limit$"
        for solve, ops in ((mst_puredp, "10,694"), (mst_puredp_naive, "57,734"),
                           (lambda g, x: mst_decomposition(g, x, SpanningTree(range(15))), "10,694")):
            with pytest.raises(GraphError, match=message.format(ops)):
                solve(g, x)

    def test_solves_within_the_budget_run(self, monkeypatch):
        g = complete_graph(16)
        x = Weighting(range(g.m))
        monkeypatch.setattr(graphs, "_WORK_OPS", 20_000)
        assert mst_puredp(g, x)[0] == kruskal_mst(g, x)
        with pytest.raises(GraphError, match="^graph too large: n=16 needs 57,734 operations"):
            mst_puredp_naive(g, x)

    def test_float_sweeps_refuse_before_copying(self, monkeypatch):
        g = complete_graph(16)
        x = Weighting(range(g.m))  # distinct weights, as maggs_plotkin_mst requires
        xbar = complete_extension(g, x)
        monkeypatch.setattr(graphs, "_WORK_OPS", 3000)  # K_16: one sweep is 3,840 operations
        for name in ("array", "full", "unique"):
            monkeypatch.setattr(graphs.np, name, lambda *a, **k: pytest.fail("copied or allocated"))
        message = r"^graph too large: n=16 needs 3,840 operations, over the 3,000-operation limit$"
        for sweep in (lambda: maggs_plotkin_mst(g, x), lambda: all_pairs_minmax(xbar),
                      lambda: all_pairs_minmax(xbar.values)):
            with pytest.raises(GraphError, match=message):
                sweep()

    def test_float_sweeps_within_the_budget_run(self, monkeypatch):
        g = complete_graph(16)
        x = Weighting(range(g.m))
        monkeypatch.setattr(graphs, "_WORK_OPS", 3840)
        assert maggs_plotkin_mst(g, x) == kruskal_mst(g, x)
        assert all_pairs_minmax(complete_extension(g, x)).n == 16
        with pytest.raises(GraphError, match="^graph too large: n=16 needs 10,694 operations"):
            mst_puredp(g, x)

    def test_sizes_in_use_fit(self):
        # every size tier-1 and the benchmark solve is far inside; a 30,000-vertex tree is not
        assert solver.naive_op_counts(256, 256 * 255 // 2).total < graphs._WORK_OPS
        assert solver.puredp_op_counts(2800, 2800 * 2799 // 2).total < graphs._WORK_OPS
        assert solver.puredp_op_counts(30_000, 29_999).total > graphs._WORK_OPS


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

    def test_non_integral_index_rejected(self):
        for edges, bad in (([0.9, 2.5], "0.9"), ([0, 2.5], "2.5"), ([0, "1"], "'1'")):
            with pytest.raises(GraphError, match=rf"^edge index {bad} is not an integer$"):
                SpanningTree(edges)
        with pytest.raises(GraphError, match="is not an integer$"):
            SpanningTree([np.float64(1.0), 0])
        for edges in (np.array([2, 0], np.uint8), [np.int64(2), np.intp(0)]):
            t = SpanningTree(edges)
            assert t.edges == (2, 0) and all(type(e) is int for e in t.edges)


# SHA-256 of kruskal_tree's output over the 300 connected instances of
# test_answers_match_networkx; pins its tie-break by edge index, which
# networkx, iterating edges in adjacency order, cannot check
KRUSKAL_TREES_SHA256 = "42226f5ad56e9f1f2e89258d2e43e91cb4777be9cb7abe8297781fdebde4d711"


class TestUnionFindAnswers:
    def test_answers_match_networkx(self):
        """Connectivity, the cycle check and Kruskal's tree agree with networkx on seeded edge lists."""
        nx = pytest.importorskip("networkx")
        rng = random.Random(14)
        h = hashlib.sha256()
        trees = 0
        while trees < 300:
            n = rng.randint(2, 12)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]  # either end first
            ref = nx.Graph(edges)
            ref.add_nodes_from(range(1, n + 1))
            if not nx.is_connected(ref):
                with pytest.raises(GraphError, match="^disconnected graph$"):
                    Graph(n, edges)
                continue
            g = Graph(n, edges)
            t = rng.sample(range(g.m), n - 1)
            if nx.is_forest(nx.Graph([edges[i] for i in t])):
                validate_spanning_tree(g, SpanningTree(t))
            else:
                with pytest.raises(GraphError, match="^spanning tree contains a cycle$"):
                    validate_spanning_tree(g, SpanningTree(t))
            x = Weighting(rng.randint(0, 3) for _ in edges)  # many tied weights
            nx.set_edge_attributes(ref, {e: w for e, w in zip(edges, x.values)}, "weight")
            tree = kruskal_tree(g, x)
            validate_spanning_tree(g, SpanningTree(tree))
            assert sum(x[i] for i in tree) == nx.minimum_spanning_tree(ref).size(weight="weight")
            h.update(repr(tree).encode())
            trees += 1
        assert h.hexdigest() == KRUSKAL_TREES_SHA256


def _tuple_dfs_tree(g):
    """fix_spanning_tree as first written: a DFS whose neighbours are sorted (neighbour, edge index) tuples."""
    adj = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g._ends.T.tolist()):
        adj[u].append((v, i))
        adj[v].append((u, i))
    visited = [False] * g.n
    visited[0] = True
    order = []
    stack = [iter(sorted(adj[0]))]
    while stack:
        for v, i in stack[-1]:
            if not visited[v]:
                visited[v] = True
                order.append(i)
                stack.append(iter(sorted(adj[v])))
                break
        else:
            stack.pop()
    return SpanningTree(order)


def _nested_find_forest(n, pairs):
    """`graphs._forest` as first written, with `find` as a nested function."""
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    joins = []
    for i, (u, v) in enumerate(pairs):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            joins.append(i)
            if len(joins) == n - 1:
                break
    return joins


class TestSetUpPaths:
    """The set-up's fast paths against the code they replaced: same trees, same joins, same faults."""

    def test_tree_equals_the_tuple_dfs(self):
        rng = random.Random(17)
        cases = [Graph(1, []), Graph(2, [(2, 1)])] + [complete_graph(n) for n in range(1, 41)]
        cases += [random_connected_graph(rng.randint(2, 60), rng.random(), rng)[0] for _ in range(30)]
        cases.append(random_connected_graph(3000, 0.0, rng)[0])  # a tree: deep stacks, one key per edge end
        cases.append(random_connected_graph(300, 0.3, rng)[0])  # uint16 ends
        cases.append(complete_graph(256))  # the benchmark's K_256
        cases.append(Graph(300, [(1, v) for v in range(2, 301)]))  # a star: one row holds every edge
        assert cases[-3]._ends.dtype == np.uint16
        for g in cases:
            assert fix_spanning_tree(g) == _tuple_dfs_tree(g)

    @pytest.mark.parametrize("n", [64, 256])
    def test_tree_takes_few_bytes_an_edge(self, n):
        """One sorted neighbour array and cursors, no Python int per edge end: 34-35 bytes an edge
        on K_64 and K_256 (159-161 while each end was keyed as a Python int)."""
        g = complete_graph(n)
        tree, peak = _peak_bytes(lambda: g._tree)
        assert len(tree) == n - 1
        assert peak <= 48 * g.m

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
           st.booleans())
    def test_forest_equals_the_nested_find(self, n, pairs, one_based):
        # ids 0..n, as _forest reads them: 0-based pairs of n+1 vertices, or 1-based pairs of n
        pairs = [(u % (n + 1), v % (n + 1)) if not one_based else (u % n + 1, v % n + 1) for u, v in pairs]
        joins = _nested_find_forest(n, pairs)
        for dtype in (np.int64, np.uint8):
            assert graphs._forest(n, *np.array(pairs, dtype).reshape(-1, 2).T) == joins

    @pytest.mark.parametrize("n,m", [(2, 600), (9, 1000), (300, 3000), (600, 5000)])
    def test_forest_reads_across_its_lists(self, n, m):
        """Joins far past the first max(n+1, 256) pairs, in whichever list of pairs they fall."""
        rng = random.Random(n)
        pairs = [(rng.randrange(n - 1), rng.randrange(n - 1)) for _ in range(m)]  # vertices n-1 and n stay apart
        for at in (255, 256, 257, m // 2, m - 1):  # vertex n joins the rest at position at
            pairs[at] = (n, rng.randrange(n - 1))
            joins = _nested_find_forest(n, pairs)
            assert at in joins and len(joins) == n - 1
            assert graphs._forest(n, *np.array(pairs, np.int64).T) == joins
            pairs[at] = (0, 0)

    def test_graph_and_kruskal_take_few_bytes_an_edge(self):
        """No Python list of all m pairs: on K_600, `Graph()` traced 93 bytes an edge and
        `kruskal_tree` 129 while the union-find read every edge's ends as a Python list."""
        n = 600
        edges = np.array([(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)], np.int64)
        g, peak = _peak_bytes(lambda: Graph(n, edges))
        assert peak <= 56 * g.m
        x = Weighting(np.random.default_rng(6).integers(0, 2**20, g.m))
        tree, peak = _peak_bytes(lambda: kruskal_tree(g, x))
        assert len(tree) == n - 1
        assert peak <= 24 * g.m

    def test_clean_graphs_skip_the_fault_search(self, monkeypatch):
        rng = random.Random(3)
        clean = [(1, []), (2, [(2, 1)]), (6, list(complete_graph(6).edges))]
        clean += [(g.n, list(g.edges)) for g, _ in (random_connected_graph(12, 0.4, rng) for _ in range(5))]
        spy = []
        fault_search = graphs._first_edge_fault
        monkeypatch.setattr(graphs, "_first_edge_fault", lambda *a: spy.append(a) or fault_search(*a))
        for n, edges in clean:
            Graph(n, edges)
            Graph(n, np.array(edges, np.int64).reshape(-1, 2))
            parse_graph(f"{n} {len(edges)}\n" + "".join(f"{u} {v} 1\n" for u, v in edges))
        assert spy == []
        for _, edges, _, bad in EDGE_FAULTS[:4]:
            with pytest.raises(GraphError) as exc:
                Graph(3, edges)
            assert exc.value.edge == bad
        assert len(spy) == 4

    def test_caller_array_is_not_written(self):
        edges = np.array([[2, 1], [3, 2], [1, 3]], np.int64)
        before = edges.copy()
        g = Graph(3, edges)
        assert np.array_equal(edges, before) and g.edges == ((1, 2), (2, 3), (1, 3))
        edges.setflags(write=False)  # a write would now raise
        assert Graph(3, edges) == g

    def test_non_contiguous_views(self):
        g = complete_graph(7)
        ends = np.array(g.edges, np.int64)
        wide = np.zeros((g.m, 5), np.int64)
        wide[:, 1], wide[:, 3] = ends[:, 1], ends[:, 0]  # columns 16 bytes apart, the ends flipped
        tall = np.zeros((2 * g.m, 2), np.int64)
        tall[::2] = ends  # rows 32 bytes apart
        views = [wide[:, 1::2], tall[::2], np.asfortranarray(ends)]
        for view in views:
            assert not view.flags.c_contiguous
            assert Graph(7, view) == g

    def test_reader_hands_graph_its_pair_field(self, monkeypatch):
        monkeypatch.setattr(np, "stack", lambda *a, **k: pytest.fail("stacked the ends"))
        monkeypatch.setattr(graphs, "_parse_lines", lambda text: pytest.fail("ran the line loop"))
        g, x = parse_graph("3 3\n2 1 5\n3 2 6\n1 3 7\n")
        assert g.edges == ((1, 2), (2, 3), (1, 3)) and x.values == (5.0, 6.0, 7.0)

    @pytest.mark.parametrize("text", ["2 1\n1.5 2 3\n", "2 1\n1e0 2 3\n", "2 1\n1 2.9 3\n"])
    def test_ids_read_through_a_float_in_the_pair_field_go_to_the_loop(self, text, monkeypatch):
        expected = _outcome(graphs._parse_lines, text)
        loops = _loadtxt_before_numpy_2_3(monkeypatch)
        assert _outcome(parse_graph, text) == expected
        assert loops == [text]


def _peak_bytes(call):
    """What `call()` returns, and the peak bytes `tracemalloc` traced while it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneTableCheck:
    """An n x n table from outside is copied and checked once; one the package computed is kept as built."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """The tables `ExtendedWeighting.__init__`, the one n x n check, has run on."""
        seen = []
        check = graphs.ExtendedWeighting.__init__
        monkeypatch.setattr(graphs.ExtendedWeighting, "__init__", lambda self, v: seen.append(v) or check(self, v))
        return seen

    def test_computed_tables_are_not_checked_again(self, checks):
        g, x = parse_graph(TRIANGLE)
        xbar = complete_extension(g, x)
        d = all_pairs_minmax(xbar)
        for table in (xbar, d, zero_edge_update(d, 1, 3), hu_minmax_via_mst(g, x)):
            assert type(table) is graphs.ExtendedWeighting and not table.values.flags.writeable
        assert maggs_plotkin_mst(g, x) == 3.0
        assert checks == []

    def test_outside_tables_are_copied_and_checked(self, checks):
        raw = np.array([[0.0, 2.0], [2.0, 0.0]])
        table = graphs.ExtendedWeighting(raw)
        raw[0, 1] = raw[1, 0] = 5.0
        assert table.weight(1, 2) == 2.0 and all_pairs_minmax(raw).dist(1, 2) == 5.0
        assert len(checks) == 2
        with pytest.raises(GraphError, match="^matrix must be symmetric$"):
            all_pairs_minmax([[0.0, 1.0], [2.0, 0.0]])

    def test_memory_within_four_tables(self):
        """K_512 on 200 levels: a 2 MiB float64 table, each call peaking under 4 of them (4.5 and 4.4 when the table was copied again).

        `complete_extension` lays the floats out directly and peaks under 2 (3.06 through the rank table).
        """
        g = complete_graph(512)
        x = Weighting([w % 200 for w in range(g.m)])
        xbar, peak = _peak_bytes(lambda: complete_extension(g, x))
        assert peak < 2 * xbar.values.nbytes
        d = all_pairs_minmax(xbar)
        zeroed, peak = _peak_bytes(lambda: zero_edge_update(d, 1, 2))
        assert peak < 4 * zeroed.values.nbytes and zeroed.dist(1, 2) == 0.0

    def test_hu_within_two_tables(self):
        """A 1,000-vertex tree: a 7.6 MiB table, peaking under two of them (4.4 with a Python list per row)."""
        g, x = random_connected_graph(1000, 0.0, random.Random(5))
        d, peak = _peak_bytes(lambda: hu_minmax_via_mst(g, x))
        assert peak < 2 * d.values.nbytes
