"""Run one workload of the minmaxmst benchmark and print its result as JSON.

    python3 bench/run.py --workload dense-256 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports `minmaxmst` from ./src
and from nowhere else.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A traced run also
writes its spans to bench/out/.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import os

# One process, one thread: keep numpy's BLAS from starting a thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "graphs.parse_s": "s",
    "graphs.extension_s": "s",
    "graphs.tree_s": "s",
    "distances.sweep_s": "s",
    "distances.update_s": "s",
    "solver.puredp_s": "s",
    "solver.ops": "count",
    "solver.ops_per_s": "1/s",
    "solver.naive_s": "s",
    "oracles.kruskal_s": "s",
    "circuit.compile_s": "s",
    "circuit.evaluate_s": "s",
    "circuit.format_s": "s",
    "circuit.nodes": "count",
    "circuit.depth": "count",
    "circuit.format_bytes": "bytes",
    "bench.answer_s": "s",
    "bench.instances_per_s": "1/s",
    "bench.calibration_s": "s",
}


def import_package(src: Path) -> None:
    """Put the checkout's src/ first on the path and make sure minmaxmst comes from it."""
    sys.path.insert(0, str(src))
    try:
        import minmaxmst
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import minmaxmst from {src}: {exc}")
    if Path(minmaxmst.__file__).resolve().parent != (src / "minmaxmst").resolve():
        raise SystemExit(f"run.py: minmaxmst was imported from {minmaxmst.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("dense-256", "sparse-stream", "circuit-64"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    args = p.parse_args(argv)

    import_package(Path.cwd() / "src")
    import workloads
    from timing import NO_TRACE, Tracer

    tracer = Tracer() if args.trace else NO_TRACE
    run = workloads.Run(tracer, bool(args.trace), args.seconds)
    scale = workloads.TINY if args.scale == "tiny" else workloads.FULL
    values = workloads.WORKLOADS[args.workload](run, scale, args.seed)
    if args.trace:
        values = workloads.per_layer(run)
        tracer.write(
            HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
            workload=args.workload,
            seed=args.seed,
            scale=args.scale,
            calibration={"at": run.clock.at, "seconds": run.clock.cal, "parse_seconds": run.clock.parse_cal},
        )
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
            }
        )
    )
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
