"""Benchmark harness rows, aggregates, and report formats."""

import csv
import io
import json
import re
from fractions import Fraction

import pytest

from treesearch import (
    BenchConfig,
    BenchReport,
    BenchRow,
    report_to_csv,
    report_to_json,
    run_bench,
)
from treesearch.errors import InvalidParameters


class TestRunBench:
    def test_uniform_path_row(self):
        config = BenchConfig(count=1, n_range=(7, 7), shapes=("path",),
                             cost_models=("uniform",), seed=1)
        report = run_bench(config)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.n == 7
        assert row.opt == 3
        assert row.approx_cost == 3
        assert row.ratio == 1
        assert row.status == "ok"
        assert report.bound_violations == 0

    def test_row_checks_its_strategy_once(self, strategy_checks):
        config = BenchConfig(count=1, n_range=(9, 9), shapes=("random-tree",),
                             cost_models=("random",), seed=5)
        (row,) = run_bench(config).rows
        assert row.status == "ok" and len(strategy_checks) == 1

    def test_empty_report(self):
        report = run_bench(BenchConfig(count=0))
        assert report.rows == ()
        assert report.max_ratio == 0
        assert report.mean_ratio == 0
        assert report.bound_violations == 0

    def test_mixed_rows_respect_bound(self):
        config = BenchConfig(count=25, n_range=(2, 12), seed=11)
        report = run_bench(config)
        assert len(report.rows) == 25
        assert report.bound_violations == 0
        for row in report.rows:
            if row.ratio is not None:
                assert row.ratio <= 4 * row.depth_d + 2
                assert row.ratio >= 1

    def test_no_oracle_above_cap(self):
        config = BenchConfig(count=5, n_range=(16, 20), seed=3, exact_cap=14,
                             shapes=("path",), cost_models=("random",))
        report = run_bench(config)
        for row in report.rows:
            assert row.status == "no-oracle"
            assert row.opt is None
            assert row.ratio is None
            assert row.approx_cost is not None
            assert row.approx_ms > 0
            assert row.oracle_ms == 0

    def test_oracle_timed_apart(self):
        report = run_bench(BenchConfig(count=6, n_range=(4, 10), seed=9))
        for row in report.rows:
            assert row.approx_ms > 0
            assert row.oracle_ms > 0

    def test_deterministic(self):
        config = BenchConfig(count=10, n_range=(2, 10), seed=21)
        a = run_bench(config)
        b = run_bench(config)
        assert [
            (r.seed, r.n, r.shape, r.cost_model, r.k, r.opt, r.approx_cost, r.ratio)
            for r in a.rows
        ] == [
            (r.seed, r.n, r.shape, r.cost_model, r.k, r.opt, r.approx_cost, r.ratio)
            for r in b.rows
        ]

    def test_state_limit_recorded_not_fatal(self):
        config = BenchConfig(count=4, n_range=(12, 12), seed=5, state_limit=8,
                             shapes=("star",), cost_models=("uniform",))
        report = run_bench(config)
        assert len(report.rows) == 4
        assert all(row.status == "state-limit" for row in report.rows)
        assert all(row.stop_message.startswith("oracle: exact solve exceeded 8")
                   for row in report.rows)

    def test_build_stop_message_names_level_region_and_aux_tree(self):
        config = BenchConfig(count=4, n_range=(30, 40), shapes=("random-tree",),
                             cost_models=("random",), seed=1, state_limit=8)
        report = run_bench(config)
        assert [row.status for row in report.rows] == ["state-limit"] * 4
        for row in report.rows:
            assert re.fullmatch(r"level \d+, region of \d+ vertices, auxiliary tree of \d+: "
                                r"exact solve exceeded 8 memo states", row.stop_message)
        json_rows = json.loads(report_to_json(report))["rows"]
        csv_rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        column = csv_rows[0].index("stop_message")
        assert [r["stop_message"] for r in json_rows] == [r.stop_message for r in report.rows]
        assert [line[column] for line in csv_rows[1:5]] == [r.stop_message for r in report.rows]

    def test_rows_that_did_not_stop_have_no_stop_message(self):
        report = run_bench(BenchConfig(count=6, n_range=(4, 10), seed=9))
        assert all(row.stop_message == "" for row in report.rows)


class TestReports:
    def test_json_shape(self):
        report = run_bench(BenchConfig(count=3, n_range=(2, 8), seed=7))
        doc = json.loads(report_to_json(report))
        assert len(doc["rows"]) == 3
        agg = doc["aggregates"]
        assert agg["count"] == 3
        assert agg["bound_violations"] == 0
        assert Fraction(agg["max_ratio"]) >= 1

    def test_csv_shape(self):
        report = run_bench(BenchConfig(count=3, n_range=(2, 8), seed=7))
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        assert rows[0][:4] == ["seed", "n", "shape", "cost_model"]
        assert len([r for r in rows if r and r[0].isdigit()]) == 3
        assert ["bound_violations", "0"] in rows


    def test_csv_columns_are_the_json_row_fields(self):
        report = BenchReport((
            BenchRow(1, 7, "path", "uniform", 1, Fraction(3), Fraction(3), Fraction(1),
                     0, 0, 1.23456, 0.98765, "ok"),
            BenchRow(2, 20, "star", "random", 2, None, Fraction(22, 7), None, 1, 9, 0.5, 0.0,
                     "no-oracle"),
            BenchRow(3, 12, "star", "uniform", 1, None, None, None, 0, 0, 7.8, 0.0,
                     "state-limit"),
        ))
        json_rows = json.loads(report_to_json(report))["rows"]
        csv_rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        assert csv_rows[0] == list(json_rows[0])
        for line, row in zip(csv_rows[1:4], json_rows):
            assert line == [str(v) for v in row.values()]
        assert json_rows[2]["opt"] == json_rows[2]["ratio"] == ""
        assert json_rows[0]["approx_ms"] == 1.235
        assert json_rows[0]["oracle_ms"] == 0.988


class TestBenchConfig:
    @pytest.mark.parametrize("kwargs", [
        {"count": 1, "n_range": (9, 3)},
        {"count": 1, "n_range": (0, 5)},
        {"count": -1},
        {"count": 1, "state_limit": 0},
    ])
    def test_rejected_on_construction(self, kwargs):
        with pytest.raises(InvalidParameters):
            BenchConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"count": "5"}, {"count": None}, {"count": True}, {"count": 2.5},
        {"count": 1, "state_limit": "5"}, {"count": 1, "state_limit": 2.5},
        {"count": 1, "state_limit": True},
    ])
    def test_count_and_state_limit_must_be_ints(self, kwargs):
        with pytest.raises(InvalidParameters, match="must be an integer"):
            BenchConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"n_range": ("2", 5)}, {"n_range": 5}, {"n_range": (2.5, 5)}, {"n_range": (True, 5)},
        {"n_range": (2, 5, 7)}, {"exact_cap": "3"}, {"exact_cap": -1}, {"exact_cap": True},
        {"shapes": ()}, {"shapes": "path"}, {"cost_models": []}, {"cost_models": "random"},
        {"seed": None}, {"seed": 2.5}, {"seed": [1]},
    ])
    def test_every_field_is_checked(self, kwargs):
        with pytest.raises(InvalidParameters):
            BenchConfig(count=1, **kwargs)
