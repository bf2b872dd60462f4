import hashlib
import math
import operator
import random
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace
from math import comb

import numpy as np
import pytest

from minmaxmst import (
    Circuit,
    Graph,
    GraphError,
    OpCounts,
    Weighting,
    compile_mst_circuit,
    complete_graph,
    count_ops,
    evaluate,
    fix_spanning_tree,
    format_circuit,
    kruskal_mst,
    live_ops,
    mst_decomposition,
    mst_puredp,
    parse_graph,
    puredp_op_counts,
    random_connected_graph,
)
from minmaxmst import circuit, graphs
from minmaxmst.circuit import ADD, KIND_NAMES, MAX, MIN, _live_plan
from conftest import TRIANGLE, random_instances, small_graphs_of_every_shape

LINE_RE = re.compile(
    r"^\d+ = (input \d+|const 0|min \d+ \d+|max \d+ \d+|add \d+ \d+)$"
)

# SHA-256 of format_circuit(compile_mst_circuit(g)): the emitted bytes are fixed
GOLDEN_SHA256 = {
    "triangle": "87f61905dcc7dddc8236ec629eab10640f7c09061cbbdb5842b86c34c849ba03",
    "K8": "3a1c7e9a64f006eb2d493a663a485bb188fd46bd632adb7e652bfc7aa6175358",
    "K16": "e568f3744a8d6876f6cfe6d9cf704376a6700c7fb4b13f1b334c0a8a14b7c09b",
    "sparse16": "6a0aa5aa3788255f078461180dc14e89b08b1d9488d903b7ff76047df1b13582",
    "K32": "eef2568c99475e95859ecd947a3ac2e26c82ae52cc14d8c45b0e564b50f914da",
}


def reference_evaluate(c, values):
    """Per-node interpreter over `c.nodes`, the reference for `evaluate`."""
    return reference_values(c, values)[c.output]


def reference_values(c, values):
    """Every node's value in node order, by `reference_evaluate`'s interpreter."""
    vals = []
    for node in c.nodes:
        kind = node[0]
        if kind == "min":
            a, b = vals[node[1]], vals[node[2]]
            vals.append(a if a <= b else b)
        elif kind == "max":
            a, b = vals[node[1]], vals[node[2]]
            vals.append(a if a >= b else b)
        elif kind == "add":
            vals.append(vals[node[1]] + vals[node[2]])
        elif kind == "input":
            vals.append(float(values[node[1]]))
        else:  # const
            vals.append(node[1])
    return vals


def golden_graph(name):
    if name == "triangle":
        return parse_graph(TRIANGLE)[0]
    if name == "sparse16":
        g, _ = random_connected_graph(16, 0.3, random.Random(2024), 100)
        assert g.m == 47
        return g
    return complete_graph(int(name[1:]))


class TestCompile:
    def test_deterministic(self, triangle):
        g, _ = triangle
        assert format_circuit(compile_mst_circuit(g)) == format_circuit(compile_mst_circuit(g))

    def test_structure_is_weight_free(self):
        for g, x in random_instances(10, seed=41, max_n=9):
            c = compile_mst_circuit(g)
            mst_puredp(g, x)  # solving in between must not influence compilation
            assert format_circuit(compile_mst_circuit(g)) == format_circuit(c)

    def test_operands_precede_node(self):
        for i, node in enumerate(compile_mst_circuit(complete_graph(5)).nodes):
            if node[0] in ("min", "max", "add"):
                assert node[1] < i and node[2] < i

    def test_one_input_per_edge(self):
        for g, _ in random_instances(6, seed=42, max_n=8):
            c = compile_mst_circuit(g)
            inputs = [node[1] for node in c.nodes if node[0] == "input"]
            assert inputs == list(range(g.m))

    def test_no_branching_or_subtraction_node_kinds(self):
        c = compile_mst_circuit(complete_graph(6))
        kinds = {node[0] for node in c.nodes}
        assert kinds <= {"input", "const", "min", "max", "add"}
        assert all(node[1] == 0.0 for node in c.nodes if node[0] == "const")

    def test_single_edge_circuit(self):
        g, x = parse_graph("2 1\n1 2 7\n")
        c = compile_mst_circuit(g)
        assert sum(node[0] == "input" for node in c.nodes) == 1
        assert evaluate(c, x) == 7.0

    def test_single_vertex_circuit(self):
        g, _ = parse_graph("1 0\n")
        c = compile_mst_circuit(g)
        assert evaluate(c, []) == 0.0
        assert count_ops(c).total == 0


class TestNodeBudget:
    """A circuit whose blocks (24 bytes a node) would pass `graphs._TABLE_BYTES` is refused before anything is built."""

    @pytest.fixture
    def no_emitter(self, monkeypatch):
        monkeypatch.setattr(np, "triu_indices", lambda *a, **k: pytest.fail("built the emitter"))

    def test_refused_by_its_node_count(self, monkeypatch, no_emitter):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 2**20)
        g = complete_graph(32)
        nodes = g.m + 1 + puredp_op_counts(g.n, g.m).total
        with pytest.raises(GraphError, match=f"^graph too large: n=32 needs a {24 * nodes:,}-byte circuit "
                                             f"of {nodes:,} nodes, over the 1,048,576-byte limit$"):
            compile_mst_circuit(g)

    def test_circuits_within_the_budget_are_built(self, monkeypatch):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 2**20)
        g = complete_graph(16)  # 10,815 nodes: 259,560 bytes
        assert count_ops(compile_mst_circuit(g)) == puredp_op_counts(g.n, g.m)

    def test_huge_sparse_graph_refused_under_the_real_budget(self, no_emitter):
        n = 10**5  # a path: its (n, n) tables alone would be tens of GB
        with pytest.raises(GraphError, match=r"^graph too large: n=100000 needs a [\d,]+-byte circuit"):
            compile_mst_circuit(Graph(n, [(v, v + 1) for v in range(1, n)]))
        g = complete_graph(64)
        assert 24 * (g.m + 1 + puredp_op_counts(g.n, g.m).total) < graphs._TABLE_BYTES


class TestBlocks:
    """The blocks are the only description of a compiled circuit's nodes."""

    def test_circuit_holds_no_node_order_arrays(self):
        assert [f.name for f in fields(Circuit)] == ["size", "output", "n", "m", "blocks"]

    def test_blocks_partition_the_computed_nodes(self):
        """In a compiled circuit and in its live plan alike."""
        for g in small_graphs_of_every_shape(52) + [complete_graph(16)]:
            c = compile_mst_circuit(g)
            for c in (c, c._plan):
                ids = np.concatenate([operand_slots(blk.ids) for blk in c.blocks] + [np.zeros(0, dtype=np.intp)])
                assert np.array_equal(np.sort(ids), np.arange(g.m + 1, c.size))

    def test_folds_are_chains(self):
        """A fold's ids ascend from its one start.  The extension's max-fold takes
        the ids right after the constant 0; the add chain's ids lie between rounds."""
        for g in small_graphs_of_every_shape(53) + [complete_graph(16)]:
            folds = [blk for blk in compile_mst_circuit(g).blocks if blk.fold]
            assert [blk.kind for blk in folds] == [MAX] * (g.m > 1) + [ADD] * (g.n > 1)
            for blk in folds:
                assert len(blk.a) == 1 and blk.a[0] < blk.ids[0] and np.all(np.diff(blk.ids) > 0)
                if blk.kind == MAX:
                    assert np.array_equal(blk.ids, np.arange(g.m + 1, 2 * g.m))

    def test_count_ops_matches_the_node_order_view(self):
        for g in small_graphs_of_every_shape(54) + [complete_graph(16)]:
            c = compile_mst_circuit(g)
            tally = Counter(node[0] for node in c.nodes)
            assert count_ops(c) == OpCounts(tally["min"], tally["max"], tally["add"])
            assert tally["input"] == g.m and tally["const"] == 1
            assert sum(tally.values()) == c.size


def operand_slots(v):
    return np.arange(v.start, v.stop, v.step) if isinstance(v, slice) else v


class TestSlots:
    """Blocks run in evaluation order and speak node ids, the text's numbering."""

    def test_operands_lie_below_the_block(self):
        """A plain block reads one a and one b per node, a fold one a (its start) and one b per node,
        each an input, the constant or a node of an earlier block; only plain blocks read runs."""
        for g in small_graphs_of_every_shape(57) + [complete_graph(16)]:
            c = compile_mst_circuit(g)
            ids = np.arange(c.size)
            done = ids <= c.m  # the inputs and the constant
            for blk in c.blocks:
                a, b = ids[blk.a], ids[blk.b]
                assert (len(a), len(b)) == ((1, len(blk.ids)) if blk.fold else (len(blk.ids), len(blk.ids)))
                assert done[a].all() and done[b].all()
                assert not blk.fold or not isinstance(blk.a, slice) and not isinstance(blk.b, slice)
                done[blk.ids] = True

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_update_rounds_min_blocks_read_slices(self, n):
        """After the extension's fold and four blocks per sweep round, each update
        round is its maxes, its first mins and its second mins.  Both mins read
        their maxes and the second reads the first as runs, and the first min reads
        the table that the sweep or the previous update round left as a run too."""
        c = compile_mst_circuit(complete_graph(n))
        updates = c.blocks[1 + 4 * n : -1]
        assert len(updates) == 3 * (n - 2)
        for r in range(n - 2):
            maxes, m1, m2 = updates[3 * r : 3 * r + 3]
            assert (maxes.kind, m1.kind, m2.kind) == (MAX, MIN, MIN)
            assert all(isinstance(v, slice) for v in (m1.a, m1.b, m2.a, m2.b))

    def test_every_node_evaluates_like_the_reference(self):
        rng = random.Random(58)
        shapes = [g for g in small_graphs_of_every_shape(59) if g.n <= 5][:8]
        for g in [complete_graph(5)] + shapes:
            c = compile_mst_circuit(g)
            x = Weighting([rng.randint(0, 9999) / 10 for _ in range(g.m)])
            for t in range(c.size):
                assert evaluate(replace(c, output=t), x) == reference_evaluate(replace(c, output=t), x.values)

    def test_k32_matches_solver(self):
        rng = random.Random(60)
        g = complete_graph(32)
        c = compile_mst_circuit(g)
        for _ in range(3):
            x = Weighting([rng.randint(0, 2**20) for _ in range(g.m)])
            assert evaluate(c, x) == mst_puredp(g, x)[0]

    @pytest.mark.parametrize("output", [-1, "size", "size+1", True, 2.0, "3"])
    def test_output_outside_the_nodes_raises(self, triangle, output):
        g, x = triangle
        c = compile_mst_circuit(g)
        t = {"size": c.size, "size+1": c.size + 1}.get(output, output)
        for reader in (lambda circ: evaluate(circ, x), format_circuit):
            with pytest.raises(ValueError, match=f"^output {t} is not a node id of this {c.size}-node circuit$"):
                reader(replace(c, output=t))

    def test_output_that_no_block_computes_raises(self):
        """Without its add chain, the triangle's output is a node of no block, not input 0 (weight 5)."""
        g, x = parse_graph("3 3\n1 2 5\n2 3 7\n1 3 9\n")
        c = compile_mst_circuit(g)
        assert evaluate(c, x) == 12.0
        with pytest.raises(ValueError, match=f"^output {c.output} is computed by no block of this {c.size}-node circuit$"):
            evaluate(replace(c, blocks=c.blocks[:-1]), x)

    def test_block_that_reads_a_later_block_raises(self):
        """Sweep round 0's row/column-0 mins moved before the maxes they read (nodes 6 and 8)."""
        g, x = parse_graph("3 3\n1 2 5\n2 3 7\n1 3 9\n")
        c = compile_mst_circuit(g)
        blocks = (c.blocks[0], c.blocks[2], c.blocks[1], *c.blocks[3:])
        with pytest.raises(ValueError, match="^a block reads node 6, which no earlier block computes$"):
            evaluate(replace(c, blocks=blocks), x)

    @pytest.mark.parametrize("case", ["triangle without its add chain", "K_48 without block 166"])
    def test_node_that_no_block_computes_raises(self, case):
        """Node order refuses an id that no block holds; on K_48 the ring of `_chunks` has wrapped
        by then, and the gap once printed a node of an earlier round, not the constant."""
        if case == "K_48 without block 166":
            c = compile_mst_circuit(complete_graph(48))
            blk = c.blocks[166]
            assert (blk.kind, len(blk.ids), blk.ids.min(), blk.ids.max()) == (MIN, 47, 94833, 96977)
            c, missing = replace(c, blocks=c.blocks[:166] + c.blocks[167:]), 94833
            evaluated = "^a block reads node 94833, which no earlier block computes$"
        else:
            c = compile_mst_circuit(parse_graph("3 3\n1 2 5\n2 3 7\n1 3 9\n")[0])
            c, missing = replace(c, blocks=c.blocks[:-1]), 24
            evaluated = f"^output {c.output} is computed by no block of this {c.size}-node circuit$"
        for reader in (format_circuit, lambda c: list(c.nodes)):
            with pytest.raises(ValueError, match=f"^node {missing} is computed by no block of this {c.size}-node circuit$"):
                reader(c)
        with pytest.raises(ValueError, match=f"^the blocks of this {c.size}-node circuit compute "):
            count_ops(c)
        with pytest.raises(ValueError, match=evaluated):
            evaluate(c, [1.0] * c.m)

    @pytest.mark.parametrize("node", [-37, 41])
    def test_operand_outside_the_nodes_raises(self, node):
        """The triangle's node 6, `max 3 0`, reading a node outside 0..37: numpy read -37 as node 1."""
        g, x = parse_graph("3 3\n1 2 5\n2 3 7\n1 3 9\n")
        c = compile_mst_circuit(g)
        blk = c.blocks[1]
        assert (blk.ids[0], blk.a[0], blk.b[0], c.size) == (6, 3, 0, 38)
        c = replace(c, blocks=(c.blocks[0], blk._replace(a=np.array([node, 3], np.int32)), *c.blocks[2:]))
        for reader in (lambda c: evaluate(c, x), format_circuit):
            with pytest.raises(ValueError, match=f"^a block reads node {node}, which no earlier block computes$"):
                reader(c)


class TestEvaluate:
    def test_matches_solver(self):
        for g, x in random_instances(30, seed=43, max_n=10):
            c = compile_mst_circuit(g)
            assert evaluate(c, x) == mst_puredp(g, x)[0]

    def test_exact_on_one_decimal_weights(self):
        """The add chain's value is its operands' exactly rounded sum, as `mst_puredp` returns; a
        tree-order float sum differs from it on about a quarter of these graphs."""
        for g, x in random_instances(74, seed=47, max_n=16, max_weight=9999):
            x = Weighting([w / 10 for w in x.values])
            assert evaluate(compile_mst_circuit(g), x) == mst_puredp(g, x)[0]

    def test_reusable_across_weightings(self, triangle):
        g, _ = triangle
        c = compile_mst_circuit(g)
        assert evaluate(c, [1, 3, 2]) == 3.0
        assert evaluate(c, [10, 1, 10]) == 11.0
        assert evaluate(c, [0, 0, 0]) == 0.0

    def test_monotone(self):
        rng = random.Random(45)
        for g, x in random_instances(15, seed=46, max_n=8, max_weight=50):
            c = compile_mst_circuit(g)
            higher = [w + rng.randint(0, 10) for w in x.values]
            assert evaluate(c, x) <= evaluate(c, higher)

    def test_matches_reference_interpreter(self):
        rng = random.Random(48)
        for g in small_graphs_of_every_shape(49):
            c = compile_mst_circuit(g)
            integer = Weighting([rng.randint(0, 100) for _ in range(g.m)])
            one_decimal = Weighting([rng.randint(0, 9999) / 10 for _ in range(g.m)])
            assert evaluate(c, integer) == reference_evaluate(c, integer.values)
            assert evaluate(c, integer) == mst_puredp(g, integer)[0]
            assert evaluate(c, one_decimal) == mst_puredp(g, one_decimal)[0]
            assert evaluate(c, list(one_decimal.values)) == evaluate(c, one_decimal)

    def test_add_chain_terms_are_the_decomposition(self):
        rng = random.Random(50)
        for g in small_graphs_of_every_shape(51):
            c = compile_mst_circuit(g)
            terms = [node[2] for node in c.nodes if node[0] == "add"]
            for x in (Weighting([rng.randint(0, 100) for _ in range(g.m)]),
                      Weighting([rng.randint(0, 9999) / 10 for _ in range(g.m)])):
                dec = mst_decomposition(g, x, fix_spanning_tree(g))
                assert [evaluate(replace(c, output=t), x) for t in terms] == [d for _, d in dec.terms]

    def test_overflowing_sum_raises_like_the_solvers(self):
        g, x = parse_graph("3 3\n1 2 1e308\n1 3 1.7e308\n2 3 1e308\n")
        c = compile_mst_circuit(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GraphError, match="^MST weight is too large for a 64-bit float$"):
                evaluate(c, x)
            assert evaluate(c, [1e308, 1.7e308, 0.7e308]) == 1.7e308

    @pytest.mark.parametrize("values,reason", [([-5, 1, 2], "negative weight"),
                                               ([1, float("nan"), 2], "negative weight"),
                                               ([1, 2, float("inf")], "non-finite weight"),
                                               ([1, "2", 3], "non-numeric weight")])
    def test_plain_values_are_checked_as_a_weighting(self, triangle, values, reason):
        g, _ = triangle
        with pytest.raises(GraphError) as info:
            evaluate(compile_mst_circuit(g), values)
        assert info.value.args[0] == reason

    def test_arity_mismatch(self, triangle):
        g, _ = triangle
        c = compile_mst_circuit(g)
        with pytest.raises(ValueError, match="3 input values"):
            evaluate(c, [1.0, 2.0])


class TestRanks:
    """`evaluate` runs min and max on the inputs' ranks and lifts only the add chain to weights."""

    def test_uint16_ranks_match_the_reference(self):
        """K_24 has 276 inputs, so its ranks need uint16; all weights are distinct, one decimal."""
        g = complete_graph(24)
        c = compile_mst_circuit(g)
        assert np.min_scalar_type(c.m) == np.uint16
        rng = random.Random(75)
        x = Weighting([w / 10 for w in rng.sample(range(10**6), g.m)])
        ref = reference_values(c, x.values)
        adds = {i: node[2] for i, node in enumerate(c.nodes) if node[0] == "add"}
        *chain, output = adds
        others = rng.sample([i for i in range(c.m + 1, c.size) if i not in adds], 60)
        # the output is the exactly rounded sum of the chain's terms, where the reference adds in tree order
        assert output == c.output and evaluate(c, x) == math.fsum(ref[b] for b in adds.values()) == mst_puredp(g, x)[0]
        for t in chain + others:
            assert evaluate(replace(c, output=t), x) == ref[t]

    def test_ties_and_negative_zeros_match_the_reference(self):
        g = complete_graph(8)
        c = compile_mst_circuit(g)
        rng = random.Random(76)
        for _ in range(3):
            x = Weighting([rng.choice([0.0, -0.0, 0.5, 1.0, 3.0]) for _ in range(g.m)])
            ref = reference_values(c, x.values)
            assert evaluate(c, x) == mst_puredp(g, x)[0]
            for t in range(c.size):
                assert evaluate(replace(c, output=t), x) == ref[t]

    def test_signed_zeros_and_ties_on_uint8_slots(self, monkeypatch):
        """Weights from {-0.0, 0, 1, 2, 3} are four levels, ranked as the solvers rank them: K_24's 276
        inputs evaluate on uint8 slots, the output equals both solvers', and a zero reads +0.0."""
        dtypes = set()

        class Spy:  # a min or max ufunc that notes the dtype of the slots it writes
            def __init__(self, op):
                self.op = op

            def __call__(self, a, b, out):
                dtypes.add(out.dtype)
                return self.op(a, b, out=out)

            def accumulate(self, v):
                dtypes.add(v.dtype)
                return self.op.accumulate(v)

        monkeypatch.setattr(circuit, "_UFUNCS", {k: Spy(op) for k, op in circuit._UFUNCS.items()})
        rng = random.Random(77)
        for g in [complete_graph(24)] + [g for g, _ in random_instances(6, seed=78, max_n=12)]:
            c = compile_mst_circuit(g)
            for pool in ([-0.0, 0.0, 1.0, 2.0, 3.0], [-0.0, 0.0]):
                x = Weighting(rng.choice(pool) for _ in range(g.m))
                assert evaluate(c, x) == mst_puredp(g, x)[0] == kruskal_mst(g, x)
            x = Weighting([-0.0] * g.m)  # every MST edge zero: the output, and each input, read +0.0
            for t in (c.output, 0):
                value = evaluate(replace(c, output=t), x)
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert dtypes == {np.dtype(np.uint8)}

    @pytest.mark.parametrize("move", ["add chain first", "add chain before the last block"])
    def test_add_block_not_last_raises(self, move):
        c = compile_mst_circuit(complete_graph(4))
        *blocks, chain = c.blocks
        assert chain.kind == ADD
        blocks.insert(0 if move == "add chain first" else len(blocks) - 1, chain)
        with pytest.raises(ValueError, match="^an add block must be the circuit's last block"):
            evaluate(replace(c, blocks=tuple(blocks)), [1.0] * c.m)


def reference_live(c):
    """Node ids that the output and every add node read, by a walk back over `c.nodes`, with the
    inputs and the constant."""
    nodes = list(c.nodes)
    live = set(range(c.m + 1))
    stack = [c.output] + [i for i, node in enumerate(nodes) if node[0] == "add"]
    while stack:
        i = stack.pop()
        if i not in live:
            live.add(i)
            stack += nodes[i][1:]
    return live


def absorbed(nodes, x):
    """The y that node x absorbs when it is min(y, w) with w = max(y, .) or max(., y), or the dual
    with min and max swapped: x's value is y's on any input.  None otherwise."""
    dual = {"min": "max", "max": "min"}
    if nodes[x][0] in dual:
        kind, y, w = nodes[x]
        if nodes[w][0] == dual[kind] and y in nodes[w][1:]:
            return y
    return None


POISONABLE = {"min": min, "max": max, "add": operator.add}


def poisoned_evaluate(c, values, live):
    """The reference interpreter with every node outside `live` NaN; a NaN operand makes a NaN."""
    vals = []
    for i, node in enumerate(c.nodes):
        if i not in live:
            vals.append(math.nan)
        elif node[0] == "input":
            vals.append(float(values[node[1]]))
        elif node[0] == "const":
            vals.append(node[1])
        else:
            a, b = vals[node[1]], vals[node[2]]
            vals.append(math.nan if math.isnan(a) or math.isnan(b) else POISONABLE[node[0]](a, b))
    return vals[c.output]


def sampled_outputs(c, rng, k=2):
    """The circuit, k copies whose outputs are drawn from all its nodes, and one whose output is
    the middle of the extension's max-fold, which leaves only a prefix of the fold live on K_n."""
    outputs = rng.sample(range(c.size), min(k, c.size))
    outputs += [int(blk.ids[len(blk.ids) // 2]) for blk in c.blocks[:1] if blk.kind == MAX and blk.fold]
    return [c] + [replace(c, output=t) for t in outputs]


def plan_digest(plans):
    """SHA-256 of live plans in a canonical form: each plan's size and output, then per block its
    kind, its slot range, its operand slots as lists and its fold flag."""
    h = hashlib.sha256()
    for plan in plans:
        h.update(repr((int(plan.size), int(plan.output))).encode())
        for blk in plan.blocks:
            a, b = (operand_slots(v).tolist() for v in (blk.a, blk.b))
            h.update(repr((int(blk.kind), int(blk.ids.start), int(blk.ids.stop), a, b, bool(blk.fold))).encode())
    return h.hexdigest()


# plan_digest of the plans of K_16, K_64 and small_graphs_of_every_shape(88) with sampled outputs
PLAN_SHA256 = "b1f3f8ed19dbaad305728f36dc94b7cba6c67f4b4d0aefd84ae11a842b27a68f"


def block_arrays(c):
    """The index arrays of c's blocks; stepped-slice operands hold none."""
    return [v for blk in c.blocks for v in (blk.ids, blk.a, blk.b) if not isinstance(v, slice)]


class TestLivePlan:
    """`evaluate` runs only the nodes that the output and the whole add chain read, renumbered densely."""

    def test_plan_runs_exactly_the_reference_live_nodes(self):
        """The plan's slots hold exactly the reference's live nodes, and the blocks' ids tile the slots.
        Node by node, each block computes its node's kind from the plan slots of that node's operands
        or of what they absorb (`absorbed`), and a block merged from several compiled blocks keeps its
        node ids ascending."""
        rng = random.Random(79)
        for g in small_graphs_of_every_shape(80):
            for c in sampled_outputs(compile_mst_circuit(g), rng):
                live, nodes = reference_live(c), list(c.nodes)
                plan, mark = circuit._numbered(c)
                assert set(mark.nonzero()[0].tolist()) == live
                node_at = np.zeros(plan.size, np.intp)
                node_at[mark[mark > 0] - 1] = mark.nonzero()[0]  # plan slot -> node id
                assert plan.size == len(live) and node_at[plan.output] == c.output
                assert (plan.n, plan.m) == (c.n, c.m)
                bounds = [c.m + 1] + [blk.ids.stop for blk in plan.blocks]
                assert [blk.ids.start for blk in plan.blocks] == bounds[:-1] and bounds[-1] == plan.size
                block_of = {int(i): k for k, blk in enumerate(c.blocks) for i in operand_slots(blk.ids)}
                for blk in plan.blocks:
                    a, b = operand_slots(blk.a), operand_slots(blk.b)
                    ids = node_at[blk.ids]
                    if len({block_of[int(i)] for i in ids}) > 1:
                        assert np.all(np.diff(ids) > 0)
                    for t, p in enumerate(range(blk.ids.start, blk.ids.stop)):
                        kind, x, y = nodes[node_at[p]]
                        assert kind == KIND_NAMES[blk.kind]
                        read = (node_at[a[0]] if t == 0 else node_at[p - 1]) if blk.fold else node_at[a[t]]
                        assert read in (x, absorbed(nodes, x)) and node_at[b[t]] in (y, absorbed(nodes, y))

    @pytest.mark.parametrize("n", [*range(3, 17), 64])
    def test_complete_graph_plans_run_two_blocks_per_sweep_round(self, n):
        """Each sweep round runs as one max block and one min block: the row/column-k pairs' mins
        absorb their own old cells, so the other pairs' maxes read those cells and join the
        row/column-k maxes, and the two min blocks join.  Every min block, the sweep's and the
        zeroing rounds', reads two slices.  The plan keeps K_n's live slots and live_ops."""
        g = complete_graph(n)
        c = compile_mst_circuit(g)
        plan = c._plan
        kinds = [MAX, MIN] * n + [MAX, MIN, MIN] * (n - 2) + [ADD]  # 5n - 5 blocks: 315 on K_64
        assert [blk.kind for blk in plan.blocks] == kinds
        assert all(isinstance(blk.a, slice) and isinstance(blk.b, slice) for blk in plan.blocks if blk.kind == MIN)
        p = n * (n - 1) // 2
        assert plan.size == g.m + 1 + live_ops(c).total == g.m + 1 + 2 * n * p + (n - 1) + 4 * comb(n, 3)
        rng = random.Random(n)
        x = Weighting([rng.randint(0, 2**20) for _ in range(g.m)])
        assert evaluate(c, x) == mst_puredp(g, x)[0]

    def test_a_plan_is_a_circuit(self):
        """A live plan counts, formats and evaluates like any circuit: its `count_ops` is `live_ops`,
        and the reference interpreter over its nodes and `evaluate` of it give the circuit's value."""
        rng = random.Random(86)
        for g in small_graphs_of_every_shape(87):
            x = Weighting([rng.randint(0, 100) for _ in range(g.m)])
            for c in sampled_outputs(compile_mst_circuit(g), rng):
                plan = c._plan
                assert count_ops(plan) == live_ops(c)
                assert reference_evaluate(plan, x.values) == evaluate(plan, x) == evaluate(c, x)

    def test_plans_match_the_pinned_digest(self):
        """Plans are fixed slot for slot, on complete graphs and on small graphs of every shape."""
        rng = random.Random(89)
        circuits = [compile_mst_circuit(complete_graph(n)) for n in (16, 64)]
        circuits += [c for g in small_graphs_of_every_shape(88) for c in sampled_outputs(compile_mst_circuit(g), rng)]
        assert plan_digest(c._plan for c in circuits) == PLAN_SHA256

    def test_dead_nodes_are_not_read(self):
        """Every node outside the reference's live set NaN, the output is still evaluate's."""
        rng = random.Random(81)
        for g in small_graphs_of_every_shape(82):
            x = Weighting([rng.randint(0, 100) for _ in range(g.m)])
            for c in sampled_outputs(compile_mst_circuit(g), rng):
                assert poisoned_evaluate(c, x.values, reference_live(c)) == evaluate(c, x)

    def test_live_ops_closed_form_on_complete_graphs(self):
        for n in range(1, 33):
            c = compile_mst_circuit(complete_graph(n))
            p = n * (n - 1) // 2
            assert live_ops(c).total == 2 * n * p + (n - 1) + 4 * comb(n, 3)
            assert live_ops(c) == OpCounts(n * p + 2 * comb(n, 3), n * p + 2 * comb(n, 3), n - 1)
            assert count_ops(c) == puredp_op_counts(n, p)

    def test_live_ops_on_k64(self):
        g = complete_graph(64)
        c = compile_mst_circuit(g)
        assert (live_ops(c).total, count_ops(c).total) == (424_767, 760_094)
        assert c._plan.size == g.m + 1 + 424_767 == 426_784
        assert count_ops(c) == puredp_op_counts(g.n, g.m)

    def test_live_ops_counts_the_reference_live_nodes(self):
        for g in small_graphs_of_every_shape(83):
            c = compile_mst_circuit(g)
            live = reference_live(c)
            tally = Counter(node[0] for i, node in enumerate(c.nodes) if i in live)
            assert live_ops(c) == OpCounts(tally["min"], tally["max"], tally["add"])

    def test_slice_operands_plan_like_index_arrays(self):
        """Every stepped-slice operand replaced by its index array gives the same plan and value, so
        each `flat` copy also checks a plan over index arrays alone.  The zeroing rounds read runs."""
        rng = random.Random(84)
        runs = 0
        for g in small_graphs_of_every_shape(85):
            c = compile_mst_circuit(g)
            runs += sum(isinstance(v, slice) for blk in c.blocks for v in (blk.a, blk.b))
            arrays = tuple(blk._replace(**{f: np.arange(v.start, v.stop, v.step)
                                           for f, v in (("a", blk.a), ("b", blk.b)) if isinstance(v, slice)})
                           for blk in c.blocks)
            for c in sampled_outputs(c, rng):
                flat = replace(c, blocks=arrays)
                plan, want = c._plan, flat._plan
                assert (plan.size, plan.output) == (want.size, want.output)
                assert [(s.kind, s.ids, s.fold) for s in plan.blocks] == [(s.kind, s.ids, s.fold) for s in want.blocks]
                for blk, ref in zip(plan.blocks, want.blocks):
                    assert np.array_equal(operand_slots(blk.a), operand_slots(ref.a))
                    assert np.array_equal(operand_slots(blk.b), operand_slots(ref.b))
                x = Weighting([rng.randint(0, 9999) / 10 for _ in range(g.m)])
                assert evaluate(c, x) == evaluate(flat, x)
        assert runs

    def test_plan_is_built_on_the_first_evaluate_and_kept(self, monkeypatch):
        built = []
        monkeypatch.setattr(circuit, "_live_plan", lambda c: built.append(c) or _live_plan(c))
        g, x = parse_graph(TRIANGLE)
        c = compile_mst_circuit(g)
        count_ops(c), format_circuit(c), list(c.nodes)
        assert built == []
        assert (evaluate(c, x), evaluate(c, [5, 1, 1])) == (3.0, 2.0)
        assert built == [c]

    def test_plan_allocates_one_slot_array(self):
        """Past what the plan keeps, building K_32's plan peaks within one intp array of `size`
        slots and a few temporaries the size of its widest block."""
        c = compile_mst_circuit(complete_graph(32))
        widest = max(len(blk.ids) for blk in c.blocks)
        tracemalloc.start()
        try:
            plan = _live_plan(c)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.size < c.size
        assert peak - kept <= np.dtype(np.intp).itemsize * (c.size + 4 * widest)

    def test_block_arrays_are_int32(self):
        arrays = block_arrays(compile_mst_circuit(complete_graph(16)))
        assert arrays and {v.dtype for v in arrays} == {np.dtype(np.int32)}

    def test_k64_block_arrays_fit_7_mib(self):
        assert sum(v.nbytes for v in block_arrays(compile_mst_circuit(complete_graph(64)))) <= 7 * 2**20

    def test_format_peaks_near_its_text(self):
        """Past the text it returns, formatting K_48 (318,143 nodes, an 8.2 MB text) peaks within
        256 bytes for each node of one chunk, about 2 MiB: one chunk's lists and lines and the ring
        of node-order buffers, with no second copy of the text and no node-order arrays of the
        whole circuit."""
        c = compile_mst_circuit(complete_graph(48))
        tracemalloc.start()
        try:
            text = format_circuit(c)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) > 3 * 256 * circuit._CHUNK  # a second copy of the text would not fit
        assert peak - kept <= 256 * circuit._CHUNK


class TestCountOps:
    def test_matches_instrumented_solver(self):
        shapes = [
            parse_graph("2 1\n1 2 1\n")[0],
            parse_graph("5 4\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")[0],
            parse_graph("4 3\n1 2 1\n1 3 1\n1 4 1\n")[0],
            complete_graph(6),
        ] + [g for g, _ in random_instances(8, seed=47, max_n=9)]
        for g in shapes:
            x = Weighting([1] * g.m)
            assert count_ops(compile_mst_circuit(g)) == mst_puredp(g, x)[1]

    def test_cubic_growth_of_compiled_circuits(self):
        ratios = []
        for n in (4, 8, 16, 32, 64):
            total = count_ops(compile_mst_circuit(complete_graph(n))).total
            assert total == puredp_op_counts(n, n * (n - 1) // 2).total
            assert total <= 10 * n**3
            ratios.append(total / n**3)
        # constant-bounded, with shrinking increments (levels off below 3)
        assert all(r < 3.0 for r in ratios)
        steps = [b - a for a, b in zip(ratios, ratios[1:])]
        assert all(s >= 0 for s in steps)
        assert steps == sorted(steps, reverse=True)


class TestFormat:
    def test_grammar(self, triangle):
        g, _ = triangle
        text = format_circuit(compile_mst_circuit(g))
        lines = text.splitlines()
        assert re.fullmatch(r"output \d+", lines[-1])
        for line in lines[:-1]:
            assert LINE_RE.fullmatch(line), line

    def test_ids_are_dense(self, triangle):
        g, _ = triangle
        text = format_circuit(compile_mst_circuit(g))
        ids = [int(line.split()[0]) for line in text.splitlines()[:-1]]
        assert ids == list(range(len(ids)))

    def test_chunk_size_changes_neither_text_nor_nodes(self, monkeypatch):
        """Chunks of 1, 7 and 50 nodes give the text and the nodes of 8,192-node chunks.  On K_10,
        at 50 nodes a chunk, the extension's max-fold and each zeroing round cross a chunk's end."""
        k10 = compile_mst_circuit(complete_graph(10))
        fold, zeroing = k10.blocks[0], [blk for blk in k10.blocks if isinstance(blk.a, slice)]
        assert fold.fold and fold.ids[0] // 50 < fold.ids[-1] // 50
        assert zeroing and all(blk.ids[0] // 50 < blk.ids[-1] // 50 for blk in zeroing)
        circuits = [compile_mst_circuit(g) for g in small_graphs_of_every_shape(86)] + [k10]
        want = [(format_circuit(c), list(c.nodes)) for c in circuits]
        for chunk in (1, 7, 50):
            monkeypatch.setattr(circuit, "_CHUNK", chunk)
            assert [(format_circuit(c), list(c.nodes)) for c in circuits] == want, chunk

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_text_matches_golden_digest(self, name):
        text = format_circuit(compile_mst_circuit(golden_graph(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]
