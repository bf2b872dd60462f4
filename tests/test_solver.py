import ast
import dataclasses
import hashlib
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmaxmst import (
    Graph,
    GraphError,
    SpanningTree,
    Weighting,
    all_pairs_minmax,
    bruteforce_mst,
    compile_mst_circuit,
    complete_extension,
    complete_graph,
    evaluate,
    fix_spanning_tree,
    kruskal_mst,
    kruskal_tree,
    maggs_plotkin_mst,
    mst_decomposition,
    mst_puredp,
    mst_puredp_naive,
    naive_op_counts,
    parse_graph,
    puredp_op_counts,
    random_connected_graph,
    zero_edge_update,
)
from minmaxmst import circuit, distances, graphs, solver
from conftest import random_instances
from strategies import float_weighted_graphs, weighted_graphs


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

    def test_reads_neither_edge_nor_weight_tuples(self, monkeypatch):
        g, x = random_connected_graph(12, 0.5, random.Random(4))  # its tree is not built yet
        expect = kruskal_mst(g, x)

        def refuse(self):
            raise AssertionError("read the edge or weight tuples")

        monkeypatch.setattr(Graph, "edges", property(refuse))
        monkeypatch.setattr(Weighting, "values", property(refuse))
        assert mst_puredp(g, x)[0] == mst_puredp_naive(g, x)[0] == expect
        assert mst_decomposition(g, x, fix_spanning_tree(g)).total == expect
        assert evaluate(compile_mst_circuit(g), x) == expect

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

    def test_naive_resweeps_each_round(self, monkeypatch):
        """The naive solver sweeps once per tree edge and runs no zeroing update, and its op counts are
        n-1 sweeps of the nodes one emitted sweep reserves, the extension's m-1 maxes and n-1 adds."""
        sweeps, updates = [], []
        sweep = solver._sweep
        monkeypatch.setattr(solver, "_sweep", lambda d: (sweeps.append(d.shape), sweep(d))[1])
        monkeypatch.setattr(solver, "_zero_update", lambda *args: updates.append(args))
        for g, x in random_instances(12, seed=36, max_n=9):
            sweeps.clear()
            assert mst_puredp_naive(g, x)[0] == kruskal_mst(g, x)
            assert sweeps == [(g.n, g.n)] * (g.n - 1) and updates == []
            em = circuit._Emitter(g)
            t = em.extension()
            before = em.size
            em.sweep(t)
            per_sweep = em.size - before
            assert naive_op_counts(g.n, g.m).total == (g.n - 1) * per_sweep + max(g.m - 1, 0) + max(g.n - 1, 0)

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

    def test_overflowing_mst_weight_raises(self):
        g, x = parse_graph("3 3\n1 2 1e308\n1 3 1.7e308\n2 3 1.1e308\n")  # MST weight 2.1e308
        for solve in (mst_puredp, mst_puredp_naive, kruskal_mst, bruteforce_mst, maggs_plotkin_mst,
                      lambda g, x: mst_decomposition(g, x, fix_spanning_tree(g))):
            with pytest.raises(GraphError, match="too large for a 64-bit float"):
                solve(g, x)

    @settings(max_examples=150, deadline=None)
    @given(float_weighted_graphs())
    def test_exact_on_extreme_and_tied_floats(self, gx):
        g, x = gx
        expect = kruskal_mst(g, x)
        t = fix_spanning_tree(g)
        dec = mst_decomposition(g, x, t)
        assert sorted(d for _, d in dec.terms) == sorted(x.values[i] for i in kruskal_tree(g, x))
        assert mst_puredp(g, x)[0] == mst_puredp_naive(g, x)[0] == dec.total == expect
        assert dec.terms == _float_table_terms(g, x, t)

    @pytest.mark.parametrize("weights", ["integer", "float"])
    def test_exact_on_k256(self, weights):
        g, rng = complete_graph(256), random.Random(256)
        if weights == "integer":
            x = Weighting(rng.randint(0, 2**20) for _ in range(g.m))
        else:
            x = Weighting(rng.choice([rng.random(), round(rng.uniform(0, 100), 1)]) for _ in range(g.m))
        t = fix_spanning_tree(g)
        dec = mst_decomposition(g, x, t)
        assert dec.terms == _float_table_terms(g, x, t)
        assert mst_puredp(g, x)[0] == dec.total == kruskal_mst(g, x)


    def test_terms_match_the_pinned_digest(self):
        """Terms, totals and op counts of 300 seeded graphs, half with float weights
        (signed zeros, a subnormal, 1e300), hash to a pinned digest: a change of the
        layout, the ranks or the schedule that moves one bit, or a zero's sign, shows."""
        rng = random.Random(808)
        h = hashlib.sha256()
        for k in range(300):
            g, x = random_connected_graph(rng.randint(1, 24), rng.random(), rng)
            if k % 2:
                pool = [-0.0, 0.0, 5e-324, round(rng.uniform(0, 100), 1), rng.random(), 1e300]
                x = Weighting(rng.choice(pool) for _ in range(g.m))
            terms = mst_decomposition(g, x, fix_spanning_tree(g)).terms
            h.update(repr((terms, mst_puredp(g, x), mst_puredp_naive(g, x))).encode())
        assert h.hexdigest() == "e2af9467eb622e1a7198a77861ee4f216017e703e10f10deb537b30bfbdb4c8e"


def _float_table_terms(g, x, t):
    """The pure DP's terms along `t` with the schedule run on the weights themselves."""
    weights = graphs._extension_layout(g, np.array(x.values), 0.0, max(x.values, default=0.0))
    walk = solver._puredp_schedule(g._ends[:, t.edges], distances._sweep(weights), distances._zero_update)
    return tuple((e, float(d)) for e, d in zip(t.edges, walk))


def _walk_both_orders(g, x, rng, monkeypatch):
    """(dtype, top rank) of each table the solver's updates walk, along the fixed tree and a
    shuffled order of it; the terms of both walks equal the float table's."""
    walked, zero_update = [], solver._zero_update

    def spy(d, a, b):
        walked.append((d.dtype, int(d.max())))
        zero_update(d, a, b)

    monkeypatch.setattr(solver, "_zero_update", spy)
    fixed = fix_spanning_tree(g)
    for t in (fixed, SpanningTree(rng.sample(fixed.edges, len(fixed)))):
        assert mst_decomposition(g, x, t).terms == _float_table_terms(g, x, t)
    return walked


def _distinct_weighting(g, distinct, rng):
    """Weights 1..distinct on shuffled edges, the rest repeating them: distinct+1 levels with 0."""
    weights = list(range(1, distinct + 1)) + [rng.randint(1, distinct) for _ in range(g.m - distinct)]
    rng.shuffle(weights)
    return Weighting(weights)


class TestRankTable:
    """The solvers run on ranks; the rank dtype widens at 256 and 65,536 levels.

    The updates walk the swept table re-ranked to its at most n levels.
    """

    @pytest.mark.parametrize(
        "n, distinct, dtype",
        [(24, 254, np.uint8), (24, 255, np.uint8), (24, 256, np.uint16),
         (363, 65534, np.uint16), (363, 65535, np.uint16), (363, 65536, np.uint32)],
    )
    def test_dtype_boundaries(self, n, distinct, dtype, monkeypatch):
        g = complete_graph(n)
        rng = random.Random(distinct)
        x = _distinct_weighting(g, distinct, rng)
        levels, table = solver._rank_table(g, x)
        assert len(levels) == distinct + 1 and table.dtype == dtype
        assert mst_puredp(g, x)[0] == kruskal_mst(g, x)
        dec = mst_decomposition(g, x, fix_spanning_tree(g))
        assert sorted(d for _, d in dec.terms) == sorted(x.values[i] for i in kruskal_tree(g, x))
        # at most n levels survive the sweep, so the updates walk the dtype of n-1 whatever the weights
        walked = {dt for dt, _ in _walk_both_orders(g, x, rng, monkeypatch)}
        assert walked == {np.dtype({24: np.uint8, 363: np.uint16}[n])}

    def test_k256_keeps_exactly_256_levels(self, monkeypatch):
        """All-distinct positive weights: 0 and the 255 MST weights fill uint8 to its top rank."""
        g, rng = complete_graph(256), random.Random(256)
        x = Weighting(rng.sample(range(1, 10**6), g.m))
        assert solver._rank_table(g, x)[1].dtype == np.uint16
        walked = _walk_both_orders(g, x, rng, monkeypatch)
        assert {dt for dt, _ in walked} == {np.dtype(np.uint8)} and walked[0][1] == 255

    def test_zero_level_stays_positive_after_reranking(self, monkeypatch):
        # K_26: 25 weights -0.0 and 300 distinct positive ones, so the swept table is re-ranked
        g, rng = complete_graph(26), random.Random(26)
        weights = [-0.0] * 25 + list(range(1, 301))
        rng.shuffle(weights)
        x = Weighting(weights)
        assert solver._rank_table(g, x)[1].dtype == np.uint16
        assert {dt for dt, _ in _walk_both_orders(g, x, rng, monkeypatch)} == {np.dtype(np.uint8)}
        terms = [d for _, d in mst_decomposition(g, x, fix_spanning_tree(g)).terms]
        assert 0.0 in terms and not np.signbit(terms).any()

    def test_wide_table_is_freed_before_the_updates(self, monkeypatch):
        g = complete_graph(24)
        x = _distinct_weighting(g, 256, random.Random(1))
        refs, alive = [], []
        rank_table, zero_update = solver._rank_table, solver._zero_update

        def spy_table(g, x):
            levels, table = rank_table(g, x)
            refs.append(weakref.ref(table))
            return levels, table

        def spy_update(d, a, b):
            alive.append(refs[-1]() is not None)
            zero_update(d, a, b)

        monkeypatch.setattr(solver, "_rank_table", spy_table)
        monkeypatch.setattr(solver, "_zero_update", spy_update)
        assert mst_puredp(g, x)[0] == kruskal_mst(g, x)
        assert len(alive) == g.n - 2 and not any(alive)

    @settings(max_examples=100, deadline=None)
    @given(float_weighted_graphs(max_n=14))
    def test_swept_ranks_are_kruskal_tree_levels(self, gx):
        """Hu (1961): every bottleneck distance is the weight of an MST edge, so at most n levels survive the sweep."""
        g, x = gx
        levels, table = solver._rank_table(g, x)
        swept = distances._sweep(table)
        assert len(np.unique(swept)) <= g.n
        off_diagonal = levels[swept[~np.eye(g.n, dtype=bool)]]
        assert set(off_diagonal.tolist()) <= {x[i] for i in kruskal_tree(g, x)}

    def test_zero_level_is_positive_zero(self):
        # numpy's sort may put a -0.0 weight before the 0.0 level; the diagonal stays +0.0
        g, rng = complete_graph(48), random.Random(0)
        x = Weighting(rng.choice([-0.0, 0.0, 1.0, 2.0]) for _ in range(g.m))
        levels, table = solver._rank_table(g, x)
        assert levels.tolist() == [0.0, 1.0, 2.0] and not np.signbit(levels[0])
        assert not np.signbit(np.diagonal(complete_extension(g, x).values)).any()

    def test_single_vertex_has_one_level(self):
        g, x = Graph(1, []), Weighting([])
        levels, table = solver._rank_table(g, x)
        assert levels.tolist() == [0.0] and table.tolist() == [[0]]
        assert mst_decomposition(g, x, fix_spanning_tree(g)).terms == ()

    @settings(max_examples=100, deadline=None)
    @given(float_weighted_graphs(max_n=14))
    def test_rank_table_lays_out_the_extension(self, gx):
        g, x = gx
        expect = np.full((g.n, g.n), max(x.values))
        np.fill_diagonal(expect, 0.0)
        for (u, v), w in zip(g.edges, x.values):
            expect[u - 1, v - 1] = expect[v - 1, u - 1] = w
        levels, table = solver._rank_table(g, x)
        assert np.all(np.diff(levels) > 0) and math.copysign(1.0, levels[0]) == 1.0
        assert np.array_equal(levels[table], expect)
        assert table.dtype == np.min_scalar_type(len(levels) - 1)


class TestWalkPlan:
    """The fixed tree's ends in walk order, kept on the graph from its first solve; the solvers own the rest."""

    @settings(max_examples=120, deadline=None)
    @given(weighted_graphs(min_n=1, max_n=9, max_weight=9), st.booleans())
    @example((Graph(1, []), Weighting([])), False)
    @example((Graph(2, [(1, 2)]), Weighting([3])), True)
    def test_solvers_agree(self, gx, one_decimal):
        g, x = gx
        if one_decimal:
            x = Weighting([w / 10 for w in x.values])
        dec = mst_decomposition(g, x, fix_spanning_tree(g))
        assert mst_puredp(g, x)[0] == dec.total == kruskal_mst(g, x)

    def test_ends_are_the_fixed_tree_in_walk_order(self):
        cases = [Graph(1, []), Graph(2, [(1, 2)]), complete_graph(9)] + [g for g, _ in random_instances(20, seed=38)]
        for g in cases:
            ends = g._walk
            assert np.array_equal(ends, g._ends[:, fix_spanning_tree(g).edges])
            assert ends.shape == (2, g.n - 1) and ends.dtype == g._ends.dtype and not ends.flags.writeable

    def test_set_up_builds_no_plan(self):
        g, x = parse_graph("3 3\n1 2 1\n1 3 3\n2 3 2\n")
        for graph in (g, Graph(4, [(1, 2), (2, 3), (3, 4)]), complete_graph(5)):
            assert "_walk" not in vars(graph) and "_tree" not in vars(graph)
        mst_puredp(g, x)
        assert "_walk" in vars(g)

    def test_graphs_imports_nothing_from_solver(self):
        with open(graphs.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        names = []  # every imported name, dotted, at any depth: lazy imports and TYPE_CHECKING blocks too
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        assert "numpy" in names and not [name for name in names if "solver" in name.split(".")]

    def test_every_solver_and_compiler_walks_the_plan(self, monkeypatch):
        walked, schedule = [], solver._puredp_schedule

        def spy(ends, d, zero_update):
            walked.append(ends)
            return schedule(ends, d, zero_update)

        monkeypatch.setattr(solver, "_puredp_schedule", spy)
        monkeypatch.setattr(circuit, "_puredp_schedule", spy)
        g, x = random_connected_graph(9, 0.4, random.Random(40))
        mst_puredp(g, x)
        mst_puredp_naive(g, x)
        compile_mst_circuit(g)
        assert len(walked) == 3 and all(ends is g._walk for ends in walked)


class TestWalkReadout:
    """The identity a readout of the walk's cells rests on: the walk reaches one new vertex π[i] per
    tree edge, and cell i, read after edges 1..i-1 are zeroed, is the least swept distance from π[i]
    to the vertices π[0..i-1] reached before it."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(weighted_graphs(min_n=1, max_n=9), float_weighted_graphs(min_n=1, max_n=9)))
    @example((Graph(1, []), Weighting([])))
    @example((Graph(2, [(1, 2)]), Weighting([4])))
    @example((complete_graph(5), Weighting([7] * 10)))
    @example((Graph(3, [(1, 2), (2, 3), (1, 3)]), Weighting([-0.0, 2.0, 0.0])))
    def test_cells_are_prefix_minima_of_the_swept_table(self, gx):
        g, x = gx
        levels, cells = solver._ranked_walk(g, x, g._walk)
        pi, reached = [0], {0}
        for u, v in g._walk.T.tolist():
            assert (u in reached) != (v in reached)
            pi.append(v if u in reached else u)
            reached.add(pi[-1])
        swept_levels, d = solver._rank_table(g, x)
        distances._sweep(d)
        prefix = np.minimum.accumulate(d[pi], axis=0)
        readout = [prefix[i - 1, pi[i]] for i in range(1, g.n)]
        assert levels[cells].tolist() == swept_levels[readout].tolist()


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
        # pure: N + (n-2)K + (n-1) + (m-1); naive: (n-1)N + (n-1) + (m-1); N = n^2(n-1), K = 2n(n-1)
        assert puredp_op_counts(1, 0).total == naive_op_counts(1, 0).total == 0
        for n in (2, 3, 5, 8, 16, 33):
            m = n * (n - 1) // 2
            big_n = n * n * (n - 1)
            big_k = 2 * n * (n - 1)
            expect = big_n + max(n - 2, 0) * big_k + (n - 1) + (m - 1)
            assert puredp_op_counts(n, m).total == expect
            assert naive_op_counts(n, m).total == (n - 1) * big_n + (n - 1) + (m - 1)

    def test_one_shared_record_per_shape(self):
        """Every solve of one (n, m) returns the same frozen record, so its `total` int is shared too."""
        path, star = Graph(6, [(v, v + 1) for v in range(1, 6)]), Graph(6, [(1, v) for v in range(2, 7)])
        ops = mst_puredp(path, Weighting(range(5)))[1]
        assert ops is mst_puredp(star, Weighting([0.5, 2, 0, 7, 1]))[1] is puredp_op_counts(6, 5)
        assert ops.total is puredp_op_counts(6, 5).total
        naive = mst_puredp_naive(path, Weighting([1] * 5))[1]
        assert naive is mst_puredp_naive(star, Weighting([3] * 5))[1] is naive_op_counts(6, 5) and naive is not ops
        # n = 6: P = 15 pairs, each relaxed with one min and one max per sweep round (6 a sweep) and
        # twice per update round (4); the extension's max fold takes m-1 = 4 maxes, the sum n-1 = 5 adds
        assert (ops.min_count, ops.max_count, ops.add_count, ops.total) == (210, 214, 5, 429)
        assert (naive.min_count, naive.max_count, naive.add_count, naive.total) == (450, 454, 5, 909)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ops.min_count = 0

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
