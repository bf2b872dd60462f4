"""Command-line front end: solve, compare, bench, gen, emit-circuit.

Exit codes: 0 success (and agreement for `compare`), 1 input parse or
validation failure (an MST weight past the float range included), 2
algorithm precondition violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import graphs
from .circuit import compile_mst_circuit, format_circuit_chunks
from .generate import DEFAULT_MAX_WEIGHT, random_connected_graph, random_weighting
from .graphs import Graph, GraphError, Weighting, _check_bytes, _check_work, _plain, complete_graph, format_edge_list, parse_graph, fix_spanning_tree
from .oracles import PreconditionError, bruteforce_mst, kruskal_mst, maggs_plotkin_mst
from .solver import mst_decomposition, mst_puredp, mst_puredp_naive, naive_op_counts, puredp_op_counts


def _load(path: str) -> tuple[Graph, Weighting]:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


# name -> solver giving (MST weight, op counts or None); compare runs them in this order
ALGORITHMS = {
    "puredp": mst_puredp,
    "puredp-naive": mst_puredp_naive,
    "kruskal": lambda g, x: (kruskal_mst(g, x), None),
    "bruteforce": lambda g, x: (bruteforce_mst(g, x), None),
    "maggs-plotkin": lambda g, x: (maggs_plotkin_mst(g, x), None),
}


def cmd_solve(args: argparse.Namespace) -> int:
    g, x = _load(args.file)
    start = time.perf_counter()
    value, ops = ALGORITHMS[args.algorithm](g, x)
    elapsed = round((time.perf_counter() - start) * 1000, 3)
    dec = None
    if args.decomposition and args.algorithm in ("puredp", "puredp-naive"):
        dec = mst_decomposition(g, x, fix_spanning_tree(g))
    report = {
        "algorithm": args.algorithm,
        "mst_weight": _plain(value),
        "ops": None if ops is None else ops.as_dict(),
        "decomposition": None if dec is None else [[e, _plain(d)] for e, d in dec.terms],
        "time_ms": elapsed,
    }
    if args.format == "json":
        print(json.dumps(report))
    else:  # one line per key that is not null: a dict as k=v pairs, a list as e:d pairs
        for key, field in report.items():
            if isinstance(field, dict):
                field = " ".join(f"{k}={v}" for k, v in field.items())
            elif isinstance(field, list):
                field = " ".join(f"{e}:{d}" for e, d in field)
            if field is not None:
                print(f"{key:<15}{field}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    g, x = _load(args.file)
    results = {}
    for name, solve in ALGORITHMS.items():
        if solve is mst_puredp_naive and naive_op_counts(g.n, g.m).total > graphs._WORK_OPS:
            continue  # the O(n^4) solver over the work budget, skipped as bruteforce is above its size limit
        try:
            results[name] = solve(g, x)[0]
        except PreconditionError:  # bruteforce above its size limit, maggs-plotkin on tied weights
            pass
    width = max(len(name) for name in results)
    for name, value in results.items():
        print(f"{name:<{width}}  {_plain(value)}")
    agree = len(set(results.values())) == 1
    print("AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise GraphError(f"--sizes expects comma-separated integers, got {args.sizes!r}")
    if not sizes or any(n < 2 for n in sizes):
        raise GraphError("--sizes expects values >= 2")
    for n in sizes:  # K_n's uint32 rank table and its solve, checked before complete_graph builds n(n-1)/2 edges
        _check_bytes(n, 4 * n * n, "table")
        _check_work(n, puredp_op_counts(n, n * (n - 1) // 2).total)
    rng = random.Random(args.seed)
    print("n,mst_weight,ops_puredp,ops_naive,ops_puredp_per_n3,ops_naive_per_n4")
    for n in sizes:
        g = complete_graph(n)
        x = random_weighting(g.m, rng)
        value, ops = mst_puredp(g, x)
        ops_naive = naive_op_counts(n, g.m)
        print(
            f"{n},{_plain(value)},{ops.total},{ops_naive.total},"
            f"{ops.total / n**3:.6f},{ops_naive.total / n**4:.6f}"
        )
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    g, x = random_connected_graph(args.n, args.density, rng, args.max_weight)
    print(
        f"# random connected graph: n={args.n} density={args.density} "
        f"max-weight={args.max_weight} seed={args.seed}"
    )
    print(format_edge_list(g, x), end="")
    return 0


def cmd_emit_circuit(args: argparse.Namespace) -> int:
    g, _ = _load(args.file)
    sys.stdout.writelines(format_circuit_chunks(compile_mst_circuit(g)))  # never the whole text at once
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmaxmst",
        description="Minimum-spanning-tree weight via branch-free (min,max,+) dynamic programming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the MST weight of an edge-list file")
    p.add_argument("file")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="puredp")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument(
        "--decomposition",
        action="store_true",
        help="include per-tree-edge distance terms (pure-DP algorithms only)",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="run all applicable algorithms and report agreement")
    p.add_argument("file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="operation-count table for complete graphs, as CSV")
    p.add_argument("--sizes", required=True, help="comma-separated vertex counts, e.g. 8,16,32")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="emit a seeded random connected instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5,
                   help="fraction of non-tree pairs added as extra edges (default 0.5)")
    p.add_argument("--max-weight", type=int, default=DEFAULT_MAX_WEIGHT)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("emit-circuit", help="print the straight-line program for a graph")
    p.add_argument("file")
    p.set_defaults(func=cmd_emit_circuit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
