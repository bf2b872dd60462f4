import hashlib
import random
import re
from dataclasses import replace

import pytest

from minmaxmst import (
    Weighting,
    compile_mst_circuit,
    compile_mst_circuit_naive,
    complete_graph,
    count_ops,
    evaluate,
    fix_spanning_tree,
    format_circuit,
    mst_decomposition,
    mst_puredp,
    mst_puredp_naive,
    naive_op_counts,
    parse_graph,
    puredp_op_counts,
    random_connected_graph,
)
from conftest import TRIANGLE, random_instances

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

# SHA-256 of format_circuit(compile_mst_circuit_naive(g))
GOLDEN_NAIVE_SHA256 = {
    "triangle": "0ca724a51c965a57e4ff4afccd81cec0e1ae79468e91c00f62f20587e20d2586",
    "K8": "71e2da995d4432034034913aa76ff77a27a8b5ec86a9d67c96697af6ffe7145b",
    "sparse16": "e17e0a665998a3e0c7958ccf95132faa7bcb6236d64572959c7441639324fe2b",
}


def reference_evaluate(c, values):
    """Per-node interpreter over `c.nodes`, the reference for `evaluate`."""
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
    return vals[c.output]


def small_graphs_of_every_shape(seed):
    """n = 1, a single edge, trees, and random graphs with n <= 12."""
    rng = random.Random(seed)
    graphs = [parse_graph("1 0\n")[0], parse_graph("2 1\n1 2 7\n")[0], complete_graph(3)]
    graphs += [random_connected_graph(rng.randint(2, 12), 0.0, rng)[0] for _ in range(8)]
    graphs += [random_connected_graph(rng.randint(2, 12), rng.random(), rng)[0] for _ in range(24)]
    return graphs


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
        g = complete_graph(5)
        for c in (compile_mst_circuit(g), compile_mst_circuit_naive(g)):
            for i, node in enumerate(c.nodes):
                if node[0] in ("min", "max", "add"):
                    assert node[1] < i and node[2] < i

    def test_one_input_per_edge(self):
        for g, _ in random_instances(6, seed=42, max_n=8):
            c = compile_mst_circuit(g)
            inputs = [node[1] for node in c.nodes if node[0] == "input"]
            assert inputs == list(range(g.m))

    def test_no_branching_or_subtraction_node_kinds(self):
        g = complete_graph(6)
        for c in (compile_mst_circuit(g), compile_mst_circuit_naive(g)):
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


class TestEvaluate:
    def test_matches_solver(self):
        for g, x in random_instances(30, seed=43, max_n=10):
            c = compile_mst_circuit(g)
            assert evaluate(c, x) == mst_puredp(g, x)[0]

    def test_naive_circuit_matches_naive_solver(self):
        for g, x in random_instances(10, seed=44, max_n=7):
            c = compile_mst_circuit_naive(g)
            assert evaluate(c, x) == mst_puredp_naive(g, x)[0]

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

    @pytest.mark.parametrize("compile_circuit", [compile_mst_circuit, compile_mst_circuit_naive])
    def test_matches_reference_interpreter(self, compile_circuit):
        rng = random.Random(48)
        solve = mst_puredp if compile_circuit is compile_mst_circuit else mst_puredp_naive
        for g in small_graphs_of_every_shape(49):
            c = compile_circuit(g)
            integer = Weighting([rng.randint(0, 100) for _ in range(g.m)])
            one_decimal = Weighting([rng.randint(0, 9999) / 10 for _ in range(g.m)])
            assert evaluate(c, integer) == reference_evaluate(c, integer.values)
            assert evaluate(c, integer) == solve(g, integer)[0]
            assert evaluate(c, one_decimal) == reference_evaluate(c, one_decimal.values)
            assert evaluate(c, list(one_decimal.values)) == evaluate(c, one_decimal)

    @pytest.mark.parametrize("compile_circuit", [compile_mst_circuit, compile_mst_circuit_naive])
    def test_add_chain_terms_are_the_decomposition(self, compile_circuit):
        rng = random.Random(50)
        for g in small_graphs_of_every_shape(51):
            c = compile_circuit(g)
            terms = [node[2] for node in c.nodes if node[0] == "add"]
            for x in (Weighting([rng.randint(0, 100) for _ in range(g.m)]),
                      Weighting([rng.randint(0, 9999) / 10 for _ in range(g.m)])):
                dec = mst_decomposition(g, x, fix_spanning_tree(g))
                assert [evaluate(replace(c, output=t), x) for t in terms] == [d for _, d in dec.terms]

    def test_arity_mismatch(self, triangle):
        g, _ = triangle
        c = compile_mst_circuit(g)
        with pytest.raises(ValueError, match="3 input values"):
            evaluate(c, [1.0, 2.0])


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
            assert count_ops(compile_mst_circuit_naive(g)) == mst_puredp_naive(g, x)[1]

    def test_naive_strictly_larger_on_k8(self):
        g = complete_graph(8)
        lean = count_ops(compile_mst_circuit(g))
        naive = count_ops(compile_mst_circuit_naive(g))
        assert naive.total > lean.total
        assert lean == puredp_op_counts(8, 28)
        assert naive == naive_op_counts(8, 28)

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

    def test_quartic_bound_for_naive(self):
        for n in (8, 12, 16):
            total = count_ops(compile_mst_circuit_naive(complete_graph(n))).total
            assert total <= 1.5 * n**4


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

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_text_matches_golden_digest(self, name):
        text = format_circuit(compile_mst_circuit(golden_graph(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_NAIVE_SHA256))
    def test_naive_text_matches_golden_digest(self, name):
        text = format_circuit(compile_mst_circuit_naive(golden_graph(name)))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_NAIVE_SHA256[name]
