"""Command-line front end: solve, compare, bench, gen, emit-circuit.

Exit codes: 0 success (and agreement for `compare`), 1 input parse or
validation failure, 2 algorithm precondition violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass

from .circuit import compile_mst_circuit, format_circuit
from .counting import OpCounts
from .generate import DEFAULT_MAX_WEIGHT, random_connected_graph, random_weighting
from .graphs import Graph, GraphError, Weighting, complete_graph, format_edge_list, parse_graph, fix_spanning_tree
from .oracles import PreconditionError, bruteforce_mst, kruskal_mst, maggs_plotkin_mst
from .solver import mst_decomposition, mst_puredp, mst_puredp_naive, puredp_op_counts


@dataclass
class RunReport:
    algorithm: str
    mst_weight: float
    ops: OpCounts | None
    decomposition: tuple[tuple[int, float], ...] | None
    time_ms: float

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "mst_weight": _plain(self.mst_weight),
            "ops": self.ops.as_dict() if self.ops is not None else None,
            "decomposition": (
                [[e, _plain(d)] for e, d in self.decomposition]
                if self.decomposition is not None
                else None
            ),
            "time_ms": self.time_ms,
        }

    def to_text(self) -> str:
        lines = [
            f"algorithm      {self.algorithm}",
            f"mst_weight     {_plain(self.mst_weight)}",
        ]
        if self.ops is not None:
            o = self.ops
            lines.append(
                f"ops            min={o.min_count} max={o.max_count} "
                f"add={o.add_count} total={o.total}"
            )
        if self.decomposition is not None:
            terms = " ".join(f"{e}:{_plain(d)}" for e, d in self.decomposition)
            lines.append(f"decomposition  {terms}")
        lines.append(f"time_ms        {self.time_ms}")
        return "\n".join(lines)


def _plain(w: float):
    """Integral weights print as integers (canonical for the integer test data)."""
    return int(w) if w == int(w) else w


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
    decomposition = None
    start = time.perf_counter()
    if args.decomposition and args.algorithm == "puredp":
        # the decomposition is mst_puredp's own schedule: run it once for both
        dec = mst_decomposition(g, x, fix_spanning_tree(g))
        value, ops, decomposition = dec.total, puredp_op_counts(g.n, g.m), dec.terms
    else:
        value, ops = ALGORITHMS[args.algorithm](g, x)
    elapsed = round((time.perf_counter() - start) * 1000, 3)
    if args.decomposition and args.algorithm == "puredp-naive":
        decomposition = mst_decomposition(g, x, fix_spanning_tree(g)).terms
    report = RunReport(args.algorithm, value, ops, decomposition, elapsed)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.to_text())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    g, x = _load(args.file)
    results = {}
    for name, solve in ALGORITHMS.items():
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
    rng = random.Random(args.seed)
    print("n,mst_weight,ops_puredp,ops_naive,ops_puredp_per_n3,ops_naive_per_n4")
    for n in sizes:
        g = complete_graph(n)
        x = random_weighting(g.m, rng)
        value, ops = mst_puredp(g, x)
        _, ops_naive = mst_puredp_naive(g, x)
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
    print(format_circuit(compile_mst_circuit(g)), end="")
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
