"""The benchmark's three workloads.

A workload run, all in this one process and thread:
  1. makes its inputs from the seed (inputs.py) and renders them as text;
  2. sets up SETUP_REPEATS times (parse and validate every input, and on
     circuit-64 compile the circuit) and keeps the median as setup_s;
  3. answers whole rounds of its instances until the window has passed,
     timing each call into the package;
  4. reads its peak RSS, then checks every answer against checks.py.
Every duration it reports is scaled to reference speed: set-up times by the
parse sweep of timing.parse_sweep_seconds, all others by timing.Clock.
Traced, it also replays the solver's schedule through the public layer
functions, and probes the naive solver and the circuit on instances small
enough for them, so that every layer gets a per-layer figure on every
workload.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import minmaxmst as mm

import checks
import inputs
from inputs import Instance
from timing import PARSE_REFERENCE_S, Clock, parse_sweep_seconds

SETUP_REPEATS = 15
DENSE_MAX_WEIGHT = 1 << 20
SPARSE_MAX_WEIGHT = 1000


@dataclass(frozen=True)
class Scale:
    """Input sizes: FULL for the benchmark, TINY for its self-test."""

    dense_n: int
    dense_weightings: int
    dense_probe_n: int  # K_k induced by vertices 1..k gets the naive and circuit probes
    sparse_sizes: range
    sparse_chunks: int  # seeded integer-weight instances: one per size, per chunk
    sparse_probe_n: int  # largest n that gets the naive and circuit probes
    circuit_n: int
    circuit_weightings: int


FULL = Scale(256, 3, 32, range(8, 65), 17, 32, 64, 16)
TINY = Scale(24, 2, 8, range(8, 13), 2, 10, 10, 3)


@dataclass
class Run:
    """What one workload run records: answers judged, problems found, spans."""

    tracer: object
    traced: bool
    seconds: float
    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    circuits: list[tuple[int, int, int]] = field(default_factory=list)  # nodes, depth, bytes

    def call(self, name: str, fn, *args):
        with self.tracer.span(name):
            return fn(*args)

    def step(self, name: str, fn, *args):
        """call() for untimed phases, which may calibrate the clock first."""
        self.clock.tick()
        return self.call(name, fn, *args)

    def parse(self, inst: Instance):
        return self.call("graphs.parse_graph", mm.parse_graph, inst.text)

    def solve(self, g, x) -> tuple[float, int]:
        """mst_puredp, with its op count kept on the span."""
        with self.tracer.span("solver.mst_puredp") as attrs:
            value, ops = mm.mst_puredp(g, x)
            attrs["ops"] = ops.total
        return value, ops.total

    def set_up(self, make, inspect=None):
        """Median seconds of SETUP_REPEATS calls of make(i); inspect(i, state) runs untimed.

        Each set-up is scaled by the parse sweeps run just before and after it.
        """
        times, state = [], None
        for i in range(SETUP_REPEATS):
            state = None  # free the previous set-up first, so peak memory holds one
            gc.collect()
            self.clock.tick()
            before = parse_sweep_seconds()
            with self.tracer.span("bench.setup"):
                t0 = time.perf_counter()
                state = make(i)
                t1 = time.perf_counter()
            after = parse_sweep_seconds()
            times.append((t1 - t0) * PARSE_REFERENCE_S / ((before + after) / 2))
            self.clock.parse_cal += [before, after]
            self.clock.tick()
            if inspect is not None:
                inspect(i, state)
        return state, statistics.median(times)

    def window(self, answer, items) -> list:
        """Answer whole rounds over items until the window has passed.

        answer(item) gives (MST weight, op count or None).  Returns
        (index, answer, seconds) per call.
        """
        gc.collect()
        done = []
        end = time.perf_counter() + self.seconds
        while True:
            for k, item in enumerate(items):
                self.clock.tick()
                with self.tracer.span("bench.answer"):
                    t0 = time.perf_counter()
                    out = answer(item)
                    done.append((k, out, t0, time.perf_counter()))
            if time.perf_counter() >= end:
                self.clock.tick()
                return [(k, out, self.clock.seconds(t0, t1)) for k, out, t0, t1 in done]

    def judge(self, what: str, value: float, inst: Instance, tree: list[float]) -> str:
        verdict = checks.judge_weight(value, tree, inst.integer)
        if verdict == checks.WRONG:
            self.problems.append(
                f"{what} gave {value!r} but the MST weighs {math.fsum(tree)!r} (n={inst.n}, m={inst.m})"
            )
        return verdict

    def judge_window(self, done, insts: list[Instance], trees: list[list[float]]) -> None:
        """Judge every answer of the window; each is one attempted operation.

        An answer off only by float rounding is the known tree-order sum
        fault: it counts as failed, not as wrong.
        """
        for k, (value, ops), _ in done:
            self.attempted += 1
            if self.judge("answer", value, insts[k], trees[k]) == checks.FLOAT_ORDER:
                self.failed += 1
            if ops is not None and ops != checks.puredp_ops(insts[k].n, insts[k].m):
                self.problems.append(
                    f"mst_puredp reported {ops} ops, closed form {checks.puredp_ops(insts[k].n, insts[k].m)}"
                )

    def replay(self, inst: Instance, tree: list[float]) -> None:
        """Walk the solver's schedule through the public layer functions.

        Term i is the distance of tree edge e_i after e_1..e_{i-1} were zeroed;
        their sum must equal mst_puredp (on fractional weights, to within
        float rounding, whatever order either side adds in), and their
        multiset the MST's edge weights.
        """
        with self.tracer.span("bench.replay", n=inst.n, m=inst.m):
            g, x = self.step("graphs.parse_graph", mm.parse_graph, inst.text)
            xbar = self.step("graphs.complete_extension", mm.complete_extension, g, x)
            order = self.step("graphs.fix_spanning_tree", mm.fix_spanning_tree, g).edges
            d = self.step("distances.all_pairs_minmax", mm.all_pairs_minmax, xbar)
            terms = []
            for pos, e in enumerate(order):
                u, v = g.edges[e]
                terms.append(d.dist(u, v))
                if pos < len(order) - 1:
                    d = self.step("distances.zero_edge_update", mm.zero_edge_update, d, u, v)
            self.clock.tick()
            value, _ = self.solve(g, x)
            kruskal = self.step("oracles.kruskal_mst", mm.kruskal_mst, g, x)
            self.clock.tick()
        if checks.judge_weight(value, terms, inst.integer) == checks.WRONG:
            self.problems.append(
                f"replay terms sum to {math.fsum(terms)!r}, mst_puredp gave {value!r} (n={inst.n})"
            )
        if not checks.same_terms(terms, tree):
            self.problems.append(f"replay terms are not the MST's edge weights (n={inst.n})")
        self.judge("kruskal_mst", kruskal, inst, tree)

    def check_circuit(self, inst: Instance, circuit, text: str) -> None:
        """Check a circuit's op count and node count, and record its shape."""
        try:
            nodes, depth = checks.circuit_shape(text)
        except ValueError as exc:
            self.problems.append(f"circuit text: {exc}")
            return
        ops = mm.count_ops(circuit).total
        if ops != checks.puredp_ops(inst.n, inst.m):
            self.problems.append(f"count_ops gave {ops}, closed form {checks.puredp_ops(inst.n, inst.m)}")
        if nodes != inst.m + 1 + ops:
            self.problems.append(f"circuit has {nodes} nodes, expected m+1+ops = {inst.m + 1 + ops}")
        self.circuits.append((nodes, depth, len(text.encode())))

    def probe(self, inst: Instance, tree: list[float], circuit: bool = True) -> None:
        """The naive solver and, unless told not to, the circuit: both must match mst_puredp.

        On fractional weights the solvers may add their terms in different
        orders, so there they need only agree to within float rounding.
        """
        with self.tracer.span("bench.probe", n=inst.n, m=inst.m):
            g, x = self.step("graphs.parse_graph", mm.parse_graph, inst.text)
            answers = {"mst_puredp_naive": self.step("solver.mst_puredp_naive", mm.mst_puredp_naive, g, x)[0]}
            if circuit:
                compiled = self.step("circuit.compile_mst_circuit", mm.compile_mst_circuit, g)
                text = self.step("circuit.format_circuit", mm.format_circuit, compiled)
                answers["evaluate"] = self.step("circuit.evaluate", mm.evaluate, compiled, x)
            self.clock.tick()
        if circuit:
            self.check_circuit(inst, compiled, text)
        solved, _ = mm.mst_puredp(g, x)
        for what, value in answers.items():
            if checks.judge_weight(value, [solved], inst.integer) == checks.WRONG:
                self.problems.append(f"{what} gave {value!r}, mst_puredp {solved!r} (n={inst.n})")
            self.judge(what, value, inst, tree)


def trees_of(insts: list[Instance]) -> list[list[float]]:
    return [checks.mst_edge_weights(i) for i in insts]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def dense_256(run: Run, scale: Scale, seed: int) -> dict:
    """A few integer weightings of one K_n: the O(n^3) distance work dominates."""
    rng = random.Random(f"dense-256:{seed}")
    weight = inputs.integer_weight(DENSE_MAX_WEIGHT)
    insts = [inputs.complete(scale.dense_n, rng, weight) for _ in range(scale.dense_weightings)]
    trees = None
    if run.traced:  # before the window, so fix_spanning_tree is timed uncached
        trees = trees_of(insts)
        probe = inputs.induced(insts[0], scale.dense_probe_n)
        run.replay(insts[0], trees[0])
        run.probe(probe, checks.mst_edge_weights(probe))
    parsed, setup_s = run.set_up(lambda _: [run.parse(i) for i in insts])
    done = run.window(lambda gx: run.solve(*gx), parsed)
    rss = peak_rss_mb()
    run.judge_window(done, insts, trees or trees_of(insts))
    return end_to_end(setup_s, done, rss)


def sparse_stream(run: Run, scale: Scale, seed: int) -> dict:
    """About a thousand distinct small sparse graphs: per-call overhead weighs in.

    The one-decimal chunk does not depend on the seed: its answers that the
    tree-order float sum gets wrong are the same on every run, so the failed
    share is fixed until that fault is mended.
    """
    rng = random.Random(f"sparse-stream:{seed}")
    weight = inputs.integer_weight(SPARSE_MAX_WEIGHT)
    insts = [inputs.sparse(n, rng, weight) for _ in range(scale.sparse_chunks) for n in scale.sparse_sizes]
    frng = random.Random("sparse-stream:one-decimal")
    insts += [inputs.sparse(n, frng, inputs.one_decimal_weight) for n in scale.sparse_sizes]
    trees = None
    if run.traced:  # the first seeded chunk and the one-decimal chunk
        trees = trees_of(insts)
        chunk = len(scale.sparse_sizes)
        for inst, tree in zip(insts[:chunk] + insts[-chunk:], trees[:chunk] + trees[-chunk:]):
            run.replay(inst, tree)
            if inst.n <= scale.sparse_probe_n:
                run.probe(inst, tree)
    parsed, setup_s = run.set_up(lambda _: [run.parse(i) for i in insts])
    done = run.window(lambda gx: run.solve(*gx), parsed)
    rss = peak_rss_mb()
    run.judge_window(done, insts, trees or trees_of(insts))
    return end_to_end(setup_s, done, rss)


def circuit_64(run: Run, scale: Scale, seed: int) -> dict:
    """Compile K_n once, emit it, and evaluate it on many weightings.

    The solver's distance layer does no work in the window; compile, evaluate
    and the circuit's storage do.  Set-up i compiles the graph parsed from
    weighting i, so the texts emitted for the first and the last set-up must
    match byte for byte.  The last is formatted after peak memory is read,
    so that the figure holds one format_circuit, as emit-circuit does.
    """
    rng = random.Random(f"circuit-64:{seed}")
    weight = inputs.integer_weight(DENSE_MAX_WEIGHT)
    insts = [inputs.complete(scale.circuit_n, rng, weight) for _ in range(scale.circuit_weightings)]
    if run.traced:  # its own compile, format and window give the circuit figures
        tree = checks.mst_edge_weights(insts[0])
        run.replay(insts[0], tree)
        run.probe(insts[0], tree, circuit=False)

    def make(i):
        parsed = [run.parse(inst) for inst in insts]
        g = parsed[i % len(parsed)][0]
        return parsed, run.call("circuit.compile_mst_circuit", mm.compile_mst_circuit, g)

    digests = []

    def inspect(i, state):
        if i == 0:
            digests.append(digest(run.call("circuit.format_circuit", mm.format_circuit, state[1])))

    (parsed, circuit), setup_s = run.set_up(make, inspect)
    xs = [x for _, x in parsed]
    done = run.window(lambda x: (run.call("circuit.evaluate", mm.evaluate, circuit, x), None), xs)
    rss = peak_rss_mb()
    text = run.step("circuit.format_circuit", mm.format_circuit, circuit)
    if digest(text) != digests[0]:
        run.problems.append("two compiles of one graph emitted different circuit text")
    run.check_circuit(insts[0], circuit, text)
    run.judge_window(done, insts, trees_of(insts))
    return end_to_end(setup_s, done, rss)


def digest(text: str, chunk: int = 1 << 20) -> str:
    """SHA-256 of the UTF-8 text, encoded a chunk at a time so it adds no text-sized copy."""
    h = hashlib.sha256()
    for k in range(0, len(text), chunk):
        h.update(text[k : k + chunk].encode())
    return h.hexdigest()


WORKLOADS = {"dense-256": dense_256, "sparse-stream": sparse_stream, "circuit-64": circuit_64}


def end_to_end(setup_s: float, done: list, rss: float) -> dict:
    return {
        "setup_s": setup_s,
        "instances_per_s": len(done) / sum(dt for _, _, dt in done),
        "peak_rss_mb": rss,
    }


def per_layer(run: Run) -> dict:
    """Per-layer figures from the spans: times are medians per call."""
    t = run.tracer

    def seconds(span):
        return run.clock.seconds(span["start"], span["end"])

    def median(name):
        return statistics.median(seconds(s) for s in t.named(name))

    solves = t.named("solver.mst_puredp")
    answers = t.named("bench.answer")
    return {
        "graphs.parse_s": median("graphs.parse_graph"),
        "graphs.extension_s": median("graphs.complete_extension"),
        "graphs.tree_s": median("graphs.fix_spanning_tree"),
        "distances.sweep_s": median("distances.all_pairs_minmax"),
        "distances.update_s": median("distances.zero_edge_update"),
        "solver.puredp_s": median("solver.mst_puredp"),
        "solver.ops": sum(s["attrs"]["ops"] for s in t.named("solver.mst_puredp", under="bench.replay")),
        "solver.ops_per_s": sum(s["attrs"]["ops"] for s in solves) / sum(seconds(s) for s in solves),
        "solver.naive_s": median("solver.mst_puredp_naive"),
        "oracles.kruskal_s": median("oracles.kruskal_mst"),
        "circuit.compile_s": median("circuit.compile_mst_circuit"),
        "circuit.evaluate_s": median("circuit.evaluate"),
        "circuit.format_s": median("circuit.format_circuit"),
        "circuit.nodes": sum(c[0] for c in run.circuits),
        "circuit.depth": max(c[1] for c in run.circuits),
        "circuit.format_bytes": sum(c[2] for c in run.circuits),
        "bench.answer_s": median("bench.answer"),
        "bench.instances_per_s": len(answers) / sum(seconds(s) for s in answers),
        "bench.calibration_s": statistics.median(run.clock.cal),
    }
