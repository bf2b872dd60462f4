"""The solver as a straight-line program, and its operation budget.

Because the solver never branches on weights, a graph compiles once into a
fixed DAG of input/const-0/min/max/add nodes.  Evaluating that circuit on
any weighting reproduces the solver, and counting its nodes, op by op,
reproduces the counts the solver reports for its schedule: about 3n^3 for
the incremental solver.  The naive solver's column is its closed form,
`naive_op_counts`, about n^4.  Only about 56% of the incremental circuit
reaches its output, and `evaluate` runs only that part.
"""

from math import comb

from minmaxmst import (
    Weighting,
    compile_mst_circuit,
    complete_graph,
    count_ops,
    evaluate,
    format_circuit,
    live_ops,
    mst_puredp,
    naive_op_counts,
    parse_graph,
    puredp_op_counts,
)

g, x = parse_graph("3 3\n1 2 1\n1 3 3\n2 3 2\n")
circuit = compile_mst_circuit(g)
print("straight-line program for the triangle:")
print(format_circuit(circuit))

print("the same circuit serves every weighting of the graph:")
for weights in [(1, 3, 2), (10, 1, 10), (5, 5, 5), (0, 9, 0)]:
    assert evaluate(circuit, weights) == mst_puredp(g, Weighting(weights))[0]
    print(f"  weights {weights} -> MST weight {evaluate(circuit, weights)}")
print()

ops = count_ops(circuit)
print(f"node tally: {ops.min_count} min, {ops.max_count} max, {ops.add_count} add")
print(f"counts the solver reports for the same graph: {mst_puredp(g, x)[1]}")
print()

print("operation totals on complete graphs (incremental and live: circuit node counts; naive: naive_op_counts):")
print(f"{'n':>4} {'incremental':>12} {'live':>8} {'naive':>12} {'incr/n^3':>9} {'naive/n^4':>10}")
for n in (8, 16, 32):
    m = n * (n - 1) // 2
    lean_circuit = compile_mst_circuit(complete_graph(n))
    lean, live = count_ops(lean_circuit).total, live_ops(lean_circuit).total
    naive = naive_op_counts(n, m).total
    assert lean == puredp_op_counts(n, m).total
    assert live == 2 * n * m + (n - 1) + 4 * comb(n, 3)  # the sweep, the add chain, updates on live vertices
    print(f"{n:>4} {lean:>12} {live:>8} {naive:>12} {lean / n**3:>9.3f} {naive / n**4:>10.3f}")
