import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from minmaxmst import (
    Weighting,
    circuit,
    cli,
    compile_mst_circuit,
    complete_graph,
    evaluate,
    format_circuit,
    format_edge_list,
    graphs,
    parse_graph,
    solver,
)
from minmaxmst.cli import ALGORITHMS, main
from conftest import TRIANGLE

# one-decimal weights on which tree-order and ascending-order float sums differ
ONE_DECIMAL = (
    "8 17\n1 4 34.8\n1 5 71.1\n1 8 35.8\n2 3 60.8\n2 5 50.8\n2 6 59.3\n"
    "2 8 81.6\n3 4 46.7\n3 6 7\n3 7 86\n3 8 9.5\n4 5 96.7\n4 8 27.6\n"
    "5 6 48.5\n5 7 71.3\n6 7 68\n7 8 6.6\n"
)
REPORT_KEYS = {"algorithm", "mst_weight", "ops", "decomposition", "time_ms"}
# SHA-256 of `solve --format FMT` on each file, for every algorithm in sorted
# order, first without and then with --decomposition, time_ms masked as "T"
GOLDEN_FILES = {"triangle": TRIANGLE, "one_decimal": ONE_DECIMAL, "single_vertex": "1 0\n"}
GOLDEN_SOLVE_SHA256 = {
    ("triangle", "json"): "f6a2fc82e2895cdaece5e5e99ac8b3a03ffb6814decac93e267c9fad607bfa59",
    ("triangle", "text"): "e724d84cb060ff710935984d2573d476cad1fce71ac4b3cbe7a9aed44e0027a6",
    ("one_decimal", "json"): "31bc2c15c0db4e9147968ff3e8375fcad4b8cf761465da3dbf0fd9ac1e4f94f8",
    ("one_decimal", "text"): "85c007969118800ecc8e250a6e77bbd29084f2a1ffc842bab0827f1503e2f09d",
    ("single_vertex", "json"): "918848602e39e2600f815c3aca5f6aab9163cdd8dd1e498d39084c800b171c40",
    ("single_vertex", "text"): "0aafd7fda8b3327e1cdf699a7f104f2a3355f2688fdf9ba45d219c82feed78ec",
}
TIME_MS = re.compile(r"(time_ms\W+)\d+\.\d+")
# finite weights whose MST weight (2e308, 2.1e308) is past the largest float
OVERFLOW = "3 3\n1 2 1e308\n1 3 1.7e308\n2 3 1e308\n"
OVERFLOW_DISTINCT = "3 3\n1 2 1e308\n1 3 1.7e308\n2 3 1.1e308\n"


@pytest.fixture()
def tri_file(tmp_path):
    path = tmp_path / "tri.el"
    path.write_text(TRIANGLE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    @pytest.mark.parametrize(
        "algorithm", ["puredp", "puredp-naive", "kruskal", "maggs-plotkin", "bruteforce"]
    )
    def test_all_algorithms_on_triangle(self, capsys, tri_file, algorithm):
        code, out, _ = run(capsys, "solve", tri_file, "--algorithm", algorithm)
        assert code == 0
        report = json.loads(out)
        assert report["mst_weight"] == 3
        assert set(report) == REPORT_KEYS

    def test_ops_only_for_pure_dp(self, capsys, tri_file):
        _, out, _ = run(capsys, "solve", tri_file)
        assert json.loads(out)["ops"] == {"min": 15, "max": 17, "add": 2, "total": 34}
        _, out, _ = run(capsys, "solve", tri_file, "--algorithm", "kruskal")
        assert json.loads(out)["ops"] is None

    def test_decomposition_flag(self, capsys, tri_file):
        _, out, _ = run(capsys, "solve", tri_file, "--decomposition")
        assert json.loads(out)["decomposition"] == [[0, 1], [2, 2]]
        _, out, _ = run(capsys, "solve", tri_file)
        assert json.loads(out)["decomposition"] is None
        _, out, _ = run(capsys, "solve", tri_file, "--algorithm", "kruskal", "--decomposition")
        assert json.loads(out)["decomposition"] is None

    def test_text_format(self, capsys, tri_file):
        code, out, _ = run(capsys, "solve", tri_file, "--format", "text")
        assert code == 0
        assert "mst_weight     3" in out
        assert "ops            min=15 max=17 add=2 total=34" in out

    def test_text_format_with_decomposition(self, capsys, tri_file):
        _, out, _ = run(capsys, "solve", tri_file, "--format", "text", "--decomposition")
        assert "decomposition  0:1 2:2" in out

    def test_single_vertex_instance(self, capsys, tmp_path):
        f = tmp_path / "one.el"
        f.write_text("1 0\n")
        code, out, _ = run(capsys, "solve", str(f))
        assert code == 0 and json.loads(out)["mst_weight"] == 0
        code, out, _ = run(capsys, "compare", str(f))
        assert code == 0 and "AGREE" in out
        code, out, _ = run(capsys, "emit-circuit", str(f))
        assert code == 0 and out == "0 = const 0\noutput 0\n"

    def test_parse_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("3 2\n1 2 1\n1 3 -4\n")
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 1 and out == ""
        assert "negative weight on line 3" in err

    def test_graph_over_the_table_budget_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 1024)
        g = complete_graph(64)
        f = tmp_path / "k64.el"
        f.write_text(format_edge_list(g, Weighting(range(g.m))))
        code, out, err = run(capsys, "solve", str(f))
        assert code == 1 and out == ""
        assert err == "error: graph too large: n=64 needs a 8,192-byte table, over the 1,024-byte limit\n"

    def test_graph_over_the_work_budget_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "_WORK_OPS", 500_000)
        g = complete_graph(64)
        f = tmp_path / "k64.el"
        f.write_text(format_edge_list(g, Weighting([0] * g.m)))
        code, out, err = run(capsys, "solve", str(f))
        assert code == 1 and out == ""
        assert err == "error: graph too large: n=64 needs 760,094 operations, over the 500,000-operation limit\n"

    def test_crlf_and_comments_solve_as_the_plain_file(self, capsys, tmp_path):
        plain, crlf = tmp_path / "plain.el", tmp_path / "crlf.el"
        plain.write_text(ONE_DECIMAL)
        crlf.write_bytes(("# a comment\n\n" + ONE_DECIMAL.replace("\n", "\n# edge\n", 3)).replace("\n", "\r\n").encode())
        assert json.loads(run(capsys, "solve", str(crlf))[1])["mst_weight"] == json.loads(run(capsys, "solve", str(plain))[1])["mst_weight"]

    def test_inline_comment_exits_1(self, capsys, tmp_path):
        f = tmp_path / "note.el"
        f.write_text("2 1\n1 2 3 # note\n")
        assert run(capsys, "solve", str(f)) == (1, "", "error: expected 'u v w' on line 2\n")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/file.el")
        assert code == 1 and err

    def test_duplicate_weights_exit_2(self, capsys, tmp_path):
        dup = tmp_path / "dup.el"
        dup.write_text("3 3\n1 2 1\n1 3 1\n2 3 2\n")
        code, _, err = run(capsys, "solve", str(dup), "--algorithm", "maggs-plotkin")
        assert code == 2 and "distinct" in err

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_overflowing_mst_weight_exits_1(self, capsys, tmp_path, algorithm):
        f = tmp_path / "huge.el"
        f.write_text(OVERFLOW_DISTINCT)  # distinct, so that maggs-plotkin runs too
        code, out, err = run(capsys, "solve", str(f), "--algorithm", algorithm, "--decomposition")
        assert code == 1 and out == ""
        assert err == "error: MST weight is too large for a 64-bit float\n"

    def test_bruteforce_size_limit_exit_2(self, capsys, tmp_path):
        big = tmp_path / "big.el"
        lines = [f"1 {v} 1" for v in range(2, 10)]
        big.write_text("9 8\n" + "\n".join(lines) + "\n")
        code, _, err = run(capsys, "solve", str(big), "--algorithm", "bruteforce")
        assert code == 2 and "n <= 8" in err


class TestSolveGolden:
    def solve_masked(self, capsys, path, *argv):
        code, out, err = run(capsys, "solve", path, *argv)
        masked, count = TIME_MS.subn(r"\1T", out)
        assert code == 0 and err == "" and count == 1
        return masked

    @pytest.mark.parametrize("name, fmt", sorted(GOLDEN_SOLVE_SHA256))
    def test_report_matches_golden_digest(self, capsys, tmp_path, name, fmt):
        f = tmp_path / "g.el"
        f.write_text(GOLDEN_FILES[name])
        text = "".join(
            self.solve_masked(capsys, str(f), "--algorithm", algorithm, "--format", fmt, *flags)
            for algorithm in sorted(ALGORITHMS)
            for flags in ([], ["--decomposition"])
        )
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SOLVE_SHA256[name, fmt], text

    def test_empty_decomposition_keeps_its_text_line(self, capsys, tmp_path):
        f = tmp_path / "one.el"
        f.write_text("1 0\n")
        assert self.solve_masked(capsys, str(f), "--format", "text", "--decomposition") == (
            "algorithm      puredp\n"
            "mst_weight     0\n"
            "ops            min=0 max=0 add=0 total=0\n"
            "decomposition  \n"
            "time_ms        T\n"
        )
        assert self.solve_masked(capsys, str(f), "--decomposition") == (
            '{"algorithm": "puredp", "mst_weight": 0, '
            '"ops": {"min": 0, "max": 0, "add": 0, "total": 0}, '
            '"decomposition": [], "time_ms": T}\n'
        )


class TestCompare:
    def test_triangle_agrees(self, capsys, tri_file):
        code, out, _ = run(capsys, "compare", tri_file)
        assert code == 0
        assert out.strip().splitlines()[-1] == "AGREE"
        assert out.count(" 3") == 5  # five applicable algorithms

    def test_tree_input_agrees(self, capsys, tmp_path):
        f = tmp_path / "t.el"
        f.write_text("4 3\n1 2 4\n2 3 5\n3 4 6\n")
        code, out, _ = run(capsys, "compare", str(f))
        assert code == 0 and "AGREE" in out and " 15" in out

    def test_duplicates_skip_maggs_plotkin(self, capsys, tmp_path):
        f = tmp_path / "d.el"
        f.write_text("3 3\n1 2 1\n1 3 1\n2 3 2\n")
        code, out, _ = run(capsys, "compare", str(f))
        assert code == 0 and "maggs-plotkin" not in out

    def test_one_decimal_weights_agree(self, capsys, tmp_path):
        f = tmp_path / "f.el"
        f.write_text(ONE_DECIMAL)
        code, out, _ = run(capsys, "compare", str(f))
        lines = out.strip().splitlines()
        assert code == 0 and lines[-1] == "AGREE"
        assert {line.split()[1] for line in lines[:-1]} == {"184.79999999999998"}
        assert len(lines) == 6

    def test_overflowing_mst_weight_exits_1(self, capsys, tmp_path):
        f = tmp_path / "huge.el"
        f.write_text(OVERFLOW)
        code, out, err = run(capsys, "compare", str(f))
        assert code == 1 and out == ""
        assert err == "error: MST weight is too large for a 64-bit float\n"

    def test_corrupt_file_exits_1(self, capsys, tmp_path):
        f = tmp_path / "c.el"
        f.write_text("not a graph\n")
        code, _, err = run(capsys, "compare", str(f))
        assert code == 1 and err

    def test_naive_over_the_work_budget_is_skipped(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "_WORK_OPS", 20_000)  # K_16: 10,694 pure ops, 57,734 naive
        g = complete_graph(16)
        f = tmp_path / "k16.el"
        f.write_text(format_edge_list(g, Weighting(range(g.m))))
        code, out, err = run(capsys, "compare", str(f))
        names = [line.split()[0] for line in out.strip().splitlines()[:-1]]
        assert code == 0 and err == "" and out.strip().splitlines()[-1] == "AGREE"
        assert names == ["puredp", "kruskal", "maggs-plotkin"]


class TestBench:
    def test_two_rows_with_bounded_ratios(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "8,16", "--seed", "1")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,mst_weight,ops_puredp,ops_naive,ops_puredp_per_n3,ops_naive_per_n4"
        assert len(rows) == 3
        for row in rows[1:]:
            n, _, ops3, ops4, r3, r4 = row.split(",")
            assert int(ops3) < int(ops4)
            assert float(r3) < 10 and float(r4) < 10

    def test_n2_weight_is_the_single_edge_weight(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "2", "--seed", "5")
        expected = random.Random(5).randint(0, 10**6)
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[1] == str(expected)

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "bench", "--sizes", "4,6", "--seed", "9")
        _, second, _ = run(capsys, "bench", "--sizes", "4,6", "--seed", "9")
        assert first == second

    def test_naive_column_is_the_closed_form(self, capsys, monkeypatch):
        def refuse(g, x):
            raise AssertionError("bench ran the O(n^4) naive solver")

        monkeypatch.setattr(cli, "mst_puredp_naive", refuse)
        monkeypatch.setattr(solver, "mst_puredp_naive", refuse)
        code, out, _ = run(capsys, "bench", "--sizes", "3,5,8")
        assert code == 0
        assert out == (  # captured when this column came from running mst_puredp_naive
            "n,mst_weight,ops_puredp,ops_naive,ops_puredp_per_n3,ops_naive_per_n4\n"
            "3,1198730,34,40,1.259259,0.493827\n"
            "5,1179548,233,413,1.864000,0.660800\n"
            "8,1243300,1154,3170,2.253906,0.773926\n"
        )

    def test_huge_size_refused_before_building_the_graph(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 1024)
        monkeypatch.setattr(cli, "complete_graph", lambda n: pytest.fail(f"built K_{n}"))
        code, out, err = run(capsys, "bench", "--sizes", "17")
        assert code == 1 and out == ""
        assert err == "error: graph too large: n=17 needs a 1,156-byte table, over the 1,024-byte limit\n"

    def test_size_over_the_work_budget_refused_before_building_the_graph(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "_WORK_OPS", 900_000)
        monkeypatch.setattr(cli, "complete_graph", lambda n: pytest.fail(f"built K_{n}"))
        code, out, err = run(capsys, "bench", "--sizes", "8,70")
        assert code == 1 and out == ""
        assert err == "error: graph too large: n=70 needs 997,463 operations, over the 900,000-operation limit\n"

    def test_rejects_bad_sizes(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "1,4")
        assert code == 1 and err
        code, _, err = run(capsys, "bench", "--sizes", "abc")
        assert code == 1 and err


class TestGen:
    def test_tree_and_complete_densities(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "5", "--density", "0", "--seed", "3")
        assert code == 0
        g, _ = parse_graph(out)
        assert g.m == 4
        code, out, _ = run(capsys, "gen", "--n", "5", "--density", "1", "--seed", "3")
        g, _ = parse_graph(out)
        assert g.m == 10

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--n", "9", "--seed", "12")
        _, second, _ = run(capsys, "gen", "--n", "9", "--seed", "12")
        assert first == second

    def test_output_reparses(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "7", "--density", "0.4", "--seed", "2")
        assert code == 0
        g, x = parse_graph(out)
        assert g.n == 7

    def test_invalid_parameters_exit_1(self, capsys):
        for argv in (["gen", "--n", "0"], ["gen", "--n", "4", "--density", "2"],
                     ["gen", "--n", "5", "--max-weight", "-1"]):
            code, _, err = run(capsys, *argv)
            assert code == 1 and err


@pytest.mark.skipif(shutil.which("minmaxmst") is None, reason="entry point not on PATH")
def test_console_script(tmp_path):
    f = tmp_path / "tri.el"
    f.write_text(TRIANGLE)
    proc = subprocess.run(
        ["minmaxmst", "solve", str(f), "--algorithm", "kruskal"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mst_weight"] == 3


@pytest.mark.parametrize("text, code", [(TRIANGLE, 0), ("3 3\n1 2 1\n2 1 1\n2 3 1\n", 1)])
def test_module_runs_as_a_process(tmp_path, text, code):
    """`python -m minmaxmst.cli` from the source tree: `sys.exit(main())` sets the process's exit status."""
    f = tmp_path / "g.el"
    f.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "minmaxmst.cli", "solve", str(f)], capture_output=True, text=True, env=env)
    assert proc.returncode == code
    if code == 0:
        assert json.loads(proc.stdout)["mst_weight"] == 3
    else:
        assert proc.stderr == "error: duplicate edge on line 3\n"


class TestEmitCircuit:
    def test_deterministic_and_evaluates(self, capsys, tri_file):
        code, first, _ = run(capsys, "emit-circuit", tri_file)
        assert code == 0
        _, second, _ = run(capsys, "emit-circuit", tri_file)
        assert first == second
        g, x = parse_graph(TRIANGLE)
        assert evaluate(compile_mst_circuit(g), x) == 3.0
        assert first.splitlines()[-1].startswith("output ")

    def test_writes_the_text_one_chunk_at_a_time(self, tmp_path, monkeypatch):
        """emit-circuit writes format_circuit's bytes one chunk of nodes at a time, here 50 nodes a write."""
        monkeypatch.setattr(circuit, "_CHUNK", 50)
        g = complete_graph(8)
        f = tmp_path / "k8.el"
        f.write_text(format_edge_list(g, Weighting(range(g.m))))
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["emit-circuit", str(f)]) == 0
        c = compile_mst_circuit(g)
        text = format_circuit(c)
        assert "".join(writes) == text
        assert len(writes) == -(-c.size // 50) + 1  # the node chunks, then the output line
        assert max(map(len, writes)) < len(text) // 20

    def test_single_edge_has_one_input(self, capsys, tmp_path):
        f = tmp_path / "e.el"
        f.write_text("2 1\n1 2 5\n")
        _, out, _ = run(capsys, "emit-circuit", str(f))
        assert sum(1 for line in out.splitlines() if "input" in line) == 1

    def test_parse_error_exits_1(self, capsys, tmp_path):
        f = tmp_path / "bad.el"
        f.write_text("oops\n")
        code, _, err = run(capsys, "emit-circuit", str(f))
        assert code == 1 and err

    def test_circuit_over_the_budget_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "_TABLE_BYTES", 2**20)
        f = tmp_path / "k32.el"
        f.write_text(format_edge_list(complete_graph(32), Weighting([1] * 496)))
        code, out, err = run(capsys, "emit-circuit", str(f))
        assert code == 1 and out == ""
        assert err == "error: graph too large: n=32 needs a 2,214,888-byte circuit of 92,287 nodes, over the 1,048,576-byte limit\n"
