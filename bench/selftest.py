"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py        (from the root of a source checkout)

It shows that every check catches a deliberately wrong answer, by running
the tiny workloads with one package function replaced by a faulty one, and
that the command prints exactly the metric names and units BENCHMARK.json
declares.  Exit code 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import run

ROOT = Path.cwd()
run.import_package(ROOT / "src")

import minmaxmst as mm  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from timing import NO_TRACE, Tracer  # noqa: E402

SECONDS = 0.2


@contextmanager
def replaced(name: str, fake):
    real = getattr(mm, name)
    setattr(mm, name, fake(real))
    try:
        yield
    finally:
        setattr(mm, name, real)


def tiny_run(workload: str, traced: bool = False) -> workloads.Run:
    r = workloads.Run(Tracer() if traced else NO_TRACE, traced, SECONDS)
    workloads.WORKLOADS[workload](r, workloads.TINY, 7)
    return r


def off_by_one_weight(real):
    def fake(g, x):
        value, ops = real(g, x)
        return value + 1, ops

    return fake


def wrong_op_count(real):
    def fake(g, x):
        value, ops = real(g, x)
        return value, mm.OpCounts(ops.min_count, ops.max_count, ops.add_count + 1)

    return fake


def second_text_differs(real):
    calls = []

    def fake(c):
        calls.append(c)
        return real(c) + ("#\n" if len(calls) == 2 else "")

    return fake


def extra_count(real):
    def fake(c):
        ops = real(c)
        return mm.OpCounts(ops.min_count + 1, ops.max_count, ops.add_count)

    return fake


def skip_update(real):
    return lambda d, a, b: d


def off_by_one_eval(real):
    return lambda c, x: real(c, x) + 1


def flagged(workload: str, fault: str, fake, expect: str, traced: bool = False) -> str | None:
    """None when the faulty run reports a problem containing `expect`."""
    with replaced(fault, fake):
        problems = tiny_run(workload, traced).problems
    if any(expect in p for p in problems):
        return None
    return f"{fault} fault on {workload} not flagged ({problems[:2]})"


def case_clean_runs():
    for w in workloads.WORKLOADS:
        for traced in (False, True):
            r = tiny_run(w, traced)
            if r.problems or r.attempted < 1:
                return f"clean {w} (traced={traced}): {r.problems[:2]}, attempted {r.attempted}"
    return None


def case_faults():
    for args in [
        ("dense-256", "mst_puredp", off_by_one_weight, "but the MST weighs"),
        ("sparse-stream", "mst_puredp", off_by_one_weight, "but the MST weighs"),
        ("dense-256", "mst_puredp", wrong_op_count, "ops, closed form"),
        ("circuit-64", "format_circuit", second_text_differs, "different circuit text"),
        ("circuit-64", "count_ops", extra_count, "closed form"),
        ("circuit-64", "evaluate", off_by_one_eval, "but the MST weighs"),
    ]:
        if (msg := flagged(*args)) is not None:
            return msg
    for args in [
        ("sparse-stream", "zero_edge_update", skip_update, "replay"),
        ("dense-256", "mst_puredp_naive", off_by_one_weight, "mst_puredp_naive gave"),
    ]:
        if (msg := flagged(*args, traced=True)) is not None:
            return msg
    return None


def case_float_fault_is_failed_not_wrong():
    """An answer off by rounding on one-decimal weights is the known fault."""
    tree = [0.1, 0.2, 0.3]
    if checks.judge_weight(0.1 + 0.2 + 0.3, tree, integer=False) != checks.FLOAT_ORDER:
        return "0.1+0.2+0.3 against fsum 0.6 was not read as the float-order fault"
    if checks.judge_weight(0.7, tree, integer=False) != checks.WRONG:
        return "0.7 against 0.6 was not read as wrong"
    if checks.judge_weight(4.0, [1.0, 2.0], integer=True) != checks.WRONG:
        return "an off-by-one integer weight was not read as wrong"
    r = tiny_run("sparse-stream")
    if r.failed == 0 or r.attempted % len(workloads.TINY.sparse_sizes):
        return f"sparse-stream counted {r.failed} failed of {r.attempted}"
    return None


def exactly_rounded_sum(real):
    """mst_puredp with the float-sum fault mended: the terms summed by math.fsum."""

    def fake(g, x):
        _, ops = real(g, x)
        dec = mm.mst_decomposition(g, x, mm.fix_spanning_tree(g))
        return math.fsum(d for _, d in dec.terms), ops

    return fake


def case_float_fix_keeps_the_run_correct():
    """Once mst_puredp sums exactly, nothing fails and no check breaks, traced or not."""
    with replaced("mst_puredp", exactly_rounded_sum):
        for traced in (False, True):
            r = tiny_run("sparse-stream", traced)
            if r.problems or r.failed:
                return f"fsum mst_puredp (traced={traced}): failed {r.failed}, {r.problems[:2]}"
    return None


def case_circuit_text_is_validated():
    text = "0 = input 0\n1 = input 1\n2 = min 0 1\n3 = add 2 2\noutput 3\n"
    if checks.circuit_shape(text) != (4, 2):
        return f"shape of a small circuit read as {checks.circuit_shape(text)}"
    try:
        checks.circuit_shape(text.replace("min 0 1", "min 0 3"))
    except ValueError:
        return None
    return "an operand that points forward was accepted"


def case_replay_terms():
    if checks.same_terms([1.0, 2.0], [2.0, 1.0]) is not True:
        return "a permutation of the MST weights was rejected"
    if checks.same_terms([1.0, 3.0], [2.0, 1.0]) is not False:
        return "a wrong term was accepted"
    return None


def case_command_prints_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", w, "--seed", "3",
                 "--seconds", str(SECONDS), "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            if p.returncode != 0:
                return f"{w} trace {trace}: exit {p.returncode}: {p.stderr[-500:]}"
            result = json.loads(p.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                return f"{w} trace {trace}: metrics {sorted(got)} != {sorted(want)}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or result["correct"] is not True:
                return f"{w} trace {trace}: bad result keys or not correct: {sorted(result)}"
    return None


def main() -> int:
    cases = [v for k, v in globals().items() if k.startswith("case_")]
    bad = 0
    for case in cases:
        msg = case()
        print(f"{'PASS' if msg is None else 'FAIL'} {case.__name__}" + (f": {msg}" if msg else ""))
        bad += msg is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
