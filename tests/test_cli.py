"""End-to-end CLI: subcommands, formats, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treesearch
from treesearch import BenchConfig, BenchReport, DecisionTree, SolveLimits, parse_instance
from treesearch.cli import _emit_json, build_parser, main


def run_process(argv, timeout=120, flags=()):
    """Run the CLI in a fresh interpreter, so uncaught errors show as tracebacks."""
    env = dict(os.environ, PYTHONPATH=str(Path(treesearch.__file__).parents[1]))
    return subprocess.run([sys.executable, *flags, "-m", "treesearch", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "instance.json"
    rc = main(["gen", "--shape", "random-tree", "--cost-model", "random",
               "--n", "9", "--seed", "4", "--output", str(path)])
    assert rc == 0
    return path


def run_json(capsys, argv):
    rc = main(argv)
    assert rc == 0
    return json.loads(capsys.readouterr().out)


class TestSubcommands:
    def test_gen_validate(self, inst_file, capsys):
        doc = run_json(capsys, ["validate", "--input", str(inst_file)])
        assert doc["ok"] is True
        assert doc["n"] == 9

    def test_solve_json(self, inst_file, capsys):
        doc = run_json(capsys, ["solve", "--input", str(inst_file)])
        assert set(doc) == {"cost", "depth_d", "max_aux_size", "tree"}
        assert Fraction(doc["cost"]) > 0

    def test_solve_is_the_same_in_optimized_mode(self, inst_file):
        argv = ["solve", "--input", str(inst_file)]
        plain, optimized = run_process(argv), run_process(argv, flags=["-O"])
        assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
        assert json.loads(plain.stdout)["max_aux_size"] > 0  # the build contracted a level
        assert optimized.stdout == plain.stdout

    def test_solve_dot(self, inst_file, capsys):
        rc = main(["solve", "--input", str(inst_file), "--format", "dot"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("digraph strategy {")

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_solve_checks_the_strategy_once(self, fmt, inst_file, capsys, strategy_checks):
        assert main(["solve", "--input", str(inst_file), "--format", fmt]) == 0
        assert len(strategy_checks) == 1

    def test_exact_and_eval_and_trace(self, inst_file, tmp_path, capsys):
        doc = run_json(capsys, ["exact", "--input", str(inst_file)])
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(doc["tree"]))

        evald = run_json(capsys, ["eval", "--input", str(inst_file),
                                  "--tree", str(tree_path)])
        assert Fraction(evald["cost"]) == Fraction(doc["opt"])

        traced = run_json(capsys, ["trace", "--input", str(inst_file),
                                   "--tree", str(tree_path), "--target",
                                   str(doc["tree"]["root"])])
        assert traced["queries"] == [doc["tree"]["root"]]

    def test_solve_never_beats_exact(self, inst_file, capsys):
        solved = run_json(capsys, ["solve", "--input", str(inst_file)])
        exact = run_json(capsys, ["exact", "--input", str(inst_file)])
        assert Fraction(solved["cost"]) >= Fraction(exact["opt"])

    def test_rank(self, inst_file, capsys):
        doc = run_json(capsys, ["rank", "--input", str(inst_file)])
        assert doc["max_label"] >= 1
        assert len(doc["labels"]) == 9

    def test_kmod(self, inst_file, capsys):
        doc = run_json(capsys, ["kmod", "--input", str(inst_file)])
        assert doc["k"] >= 1
        assert (doc["k"] == 1) == doc["up_monotonic"]

    def test_export_dot_instance(self, inst_file, capsys):
        rc = main(["export-dot", "--input", str(inst_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("graph instance {")
        assert out.count("--") == 8

    def test_bench(self, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        doc = run_json(capsys, ["bench", "--count", "4", "--n-min", "2",
                                "--n-max", "9", "--seed", "2",
                                "--csv", str(csv_path)])
        assert doc["aggregates"]["count"] == 4
        assert doc["aggregates"]["bound_violations"] == 0
        assert csv_path.read_text().startswith("seed,")

    def test_gen_output_parses(self, inst_file):
        inst = parse_instance(inst_file.read_text())
        assert inst.n == 9


class TestParserDefaults:
    def test_state_limit_defaults_to_the_solver_budget(self):
        for command in ("solve", "exact"):
            args = build_parser().parse_args([command, "--input", "instance.json"])
            assert args.state_limit == SolveLimits().max_states

    def test_bench_defaults_to_the_config_defaults(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr("treesearch.cli.run_bench",
                            lambda config: seen.append(config) or BenchReport(()))
        assert main(["bench", "--count", "3"]) == 0
        assert seen == [BenchConfig(count=3)]


class TestNestedStrategyText:
    """Strategy text indented into a document reads as the document's own encoding."""

    @given(
        st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.text(max_size=4)),
                        min_size=1, max_size=3),
        st.integers(-10**6, 10**6),
        st.dictionaries(
            st.integers(-10**6, 10**6), st.lists(st.integers(-10**6, 10**6), max_size=3),
            max_size=4,
        ),
    )
    @settings(max_examples=300)
    def test_same_bytes_as_json_dumps(self, doc, root, children):
        doc.pop("tree", None)
        tree = DecisionTree(root, children)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit_json(argparse.Namespace(output=None), doc, tree)
        kids = tree.children
        nested = {"root": tree.root, "children": {str(q): list(kids[q]) for q in sorted(kids)}}
        assert out.getvalue() == json.dumps({**doc, "tree": nested}, indent=2) + "\n"


class TestExitCodes:
    def test_invalid_instance_is_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "edges": [[1,2],[1,2]], "costs": [1,1,1]}')
        assert main(["validate", "--input", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_1(self, tmp_path, capsys):
        assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 1

    def test_state_limit_is_2(self, tmp_path, capsys):
        path = tmp_path / "star.json"
        main(["gen", "--shape", "star", "--cost-model", "uniform", "--n", "14",
              "--seed", "0", "--output", str(path)])
        assert main(["exact", "--input", str(path), "--state-limit", "10"]) == 2

    def test_bad_generator_params_is_1(self, capsys):
        assert main(["gen", "--shape", "path", "--cost-model", "planted-k",
                     "--n", "4", "--k", "3"]) == 1

    @pytest.mark.parametrize("command", ["solve", "exact", "bench"])
    def test_zero_state_limit_is_1(self, command, inst_file):
        if command == "bench":
            argv = ["bench", "--count", "1"]
        else:
            argv = [command, "--input", str(inst_file)]
        proc = run_process(argv + ["--state-limit", "0"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "max_states" in proc.stderr

    @pytest.mark.parametrize("eps", ["abc", "1/0", "1e99999999", "1e-999999",
                                     pytest.param("9" * 4300, id="derived-cost-digits")])
    def test_gen_bad_eps_is_1(self, eps):
        proc = run_process(["gen", "--shape", "path", "--cost-model", "alternating",
                            "--n", "5", "--eps", eps])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr and "eps" in proc.stderr

    @pytest.mark.parametrize("argv", [["exact"], ["trace", "--input", "x.json", "--tree",
                                                  "t.json", "--target", "x"], ["nope"]])
    def test_usage_error_is_1(self, argv):
        proc = run_process(argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr

    def test_bench_empty_size_range_is_1(self):
        proc = run_process(["bench", "--count", "1", "--n-min", "9", "--n-max", "3"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "n_range" in proc.stderr

    def test_deep_exact_non_path_is_2(self, tmp_path):
        n = 1500
        edges = [[i, i + 1] for i in range(1, n)] + [[n // 2, n + 1]]
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"n": n + 1, "edges": edges, "costs": [1] * (n + 1)}))
        proc = run_process(["exact", "--input", str(path)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "recursion depth" in proc.stderr

    def test_exact_path_below_interval_budget_is_2(self, tmp_path, capsys):
        path = tmp_path / "path.json"
        assert main(["gen", "--shape", "path", "--cost-model", "uniform",
                     "--n", "40", "--output", str(path)]) == 0
        intervals = 40 * 39 // 2
        proc = run_process(["exact", "--input", str(path), "--state-limit", str(intervals - 1)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr and "interval states" in proc.stderr
        doc = run_json(capsys, ["exact", "--input", str(path), "--state-limit", str(intervals)])
        assert doc["opt"] == "6"

    @pytest.mark.parametrize("command", ["validate", "solve", "exact", "eval", "rank", "kmod",
                                         "export-dot", "trace"])
    @pytest.mark.parametrize("instance", ["missing", "malformed"])
    def test_bad_instance_is_1(self, command, instance, tmp_path):
        path = tmp_path / "instance.json"
        if instance == "malformed":
            path.write_text('{"n": 3, "edges": [[1, 2]], "costs": [1, 1, 1]}')
        tree = tmp_path / "tree.json"
        tree.write_text('{"root": 1, "children": {"1": [2]}}')
        extra = {"eval": ["--tree", str(tree)], "trace": ["--tree", str(tree), "--target", "2"]}
        proc = run_process([command, "--input", str(path), *extra.get(command, [])])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "error:" in proc.stderr

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe",
            b'{"n": 2, "edges": [[1, 2]], "costs": [1, 9' + b"9" * 5000 + b"]}",
            b'{"n": 1, "edges": [], "costs": ["1e999999999"]}',
            b'{"n": 1, "edges": [], "costs": ["-1e4300"]}',
            b'{"n": 2, "edges": [[1, 2]], "costs": [1, 1], "costs": [5, 7]}',
        ],
        ids=["not-utf8", "long-integer", "huge-exponent", "long-decimal", "repeated-key"],
    )
    def test_unreadable_instance_is_1(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        proc = run_process(["validate", "--input", str(path)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("command", ["solve", "exact", "rank", "eval", "trace"])
    def test_cost_too_long_to_print_is_1(self, command, tmp_path):
        # Each cost has as many digits as the interpreter prints; their sum has one more.
        nines = "9" * sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        path.write_text(f'{{"n": 2, "edges": [[1, 2]], "costs": ["{nines}", "{nines}"]}}')
        tree = tmp_path / "tree.json"
        tree.write_text('{"root": 1, "children": {"1": [2]}}')
        extra = {"eval": ["--tree", str(tree)], "trace": ["--tree", str(tree), "--target", "2"]}
        proc = run_process([command, "--input", str(path), *extra.get(command, [])])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "error:" in proc.stderr and "digits" in proc.stderr

    @pytest.mark.parametrize("form", ["repeated", "leading-zero", "spaces"])
    def test_bad_tree_keys_are_1(self, inst_file, tmp_path, capsys, form):
        # Read as integers, last copy winning, each document is the optimal strategy.
        doc = run_json(capsys, ["exact", "--input", str(inst_file)])["tree"]
        root = doc["root"]
        entries = [f'"{q}": {json.dumps(kids)}' for q, kids in doc["children"].items()]
        if form == "repeated":
            entries.insert(0, f'"{root}": [{root}]')
        else:
            key = {"leading-zero": f"0{root}", "spaces": f" {root} "}[form]
            entries = [e.replace(f'"{root}":', f'"{key}":', 1) for e in entries]
        tree = tmp_path / "tree.json"
        tree.write_text(f'{{"root": {root}, "children": {{{", ".join(entries)}}}}}')
        proc = run_process(["eval", "--input", str(inst_file), "--tree", str(tree)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "error:" in proc.stderr

    def test_long_uniform_path_exact_is_0(self, tmp_path):
        # The O(m³) candidate scan the window fill replaced needs tens of seconds on this path.
        n = 1200
        path = tmp_path / "path.json"
        path.write_text(json.dumps(
            {"n": n, "edges": [[i, i + 1] for i in range(1, n)], "costs": [1] * n}))
        proc = run_process(["exact", "--input", str(path)], timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["opt"] == "11"

    def test_non_utf8_tree_is_1(self, inst_file, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_bytes(b"\xff\xfe")
        proc = run_process(["eval", "--input", str(inst_file), "--tree", str(tree)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "UTF-8" in proc.stderr
