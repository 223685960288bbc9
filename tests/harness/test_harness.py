"""Tests for the experiment harness (metrics, runner, report, CLI)."""

import math
import os

import pytest

from repro.baselines.base import MethodRun
from repro.engine.backends import ExecutionStats
from repro.harness.experiments import (
    binsearch_order_sensitivity,
    fig8_aggregate_ratio,
    fig10b_refinement_threshold,
    table1_capabilities,
)
from repro.harness.metrics import ExperimentResult, Row
from repro.harness.report import render_result, render_rows, save_result
from repro.harness.runner import (
    baseline_for,
    make_backend,
    run_acquire,
    run_method,
)
from repro.exceptions import ReproError
from tests.conftest import count_query


def _run(method="M", time_ms=10.0, qscore=5.0, x=0.5):
    return Row(
        x_name="ratio",
        x_value=x,
        method=method,
        time_ms=time_ms,
        error=0.01,
        qscore=qscore,
        aggregate_value=100.0,
        queries=3,
        rows_scanned=10,
        satisfied=True,
    )


class TestMetrics:
    def test_row_from_run(self):
        run = MethodRun(
            method="ACQUIRE",
            aggregate_value=90.0,
            error=0.1,
            qscore=12.0,
            pscores=(6.0, 6.0),
            elapsed_s=0.25,
            execution=ExecutionStats(
                queries_executed=7, rows_scanned=40,
                cache_hits=1, cache_bytes=2048,
            ),
            satisfied=False,
            details={
                "cells": 5, "repartition_probes": 16, "repartitioned_cells": 2,
            },
        )
        row = Row.from_run("ratio", 0.3, run)
        assert row.time_ms == 250.0
        assert row.queries == 7
        assert (row.cache_hits, row.cache_bytes) == (1, 2048)
        assert row.extra["cells"] == 5
        assert (row.repartition_probes, row.repartitioned_cells) == (16, 2)

    def test_series_and_methods(self):
        result = ExperimentResult(
            "x", "t", "p",
            rows=[_run("A", x=0.1), _run("B", x=0.1), _run("A", x=0.5)],
        )
        assert result.methods() == ["A", "B"]
        assert result.series("A", "time_ms") == [(0.1, 10.0), (0.5, 10.0)]

    def test_speedup_geo_mean(self):
        rows = [
            _run("ACQUIRE", time_ms=10.0, x=0.1),
            _run("SLOW", time_ms=40.0, x=0.1),
            _run("ACQUIRE", time_ms=10.0, x=0.5),
            _run("SLOW", time_ms=90.0, x=0.5),
        ]
        result = ExperimentResult("x", "t", "p", rows=rows)
        assert result.speedup("time_ms", "SLOW") == pytest.approx(6.0)

    def test_speedup_no_shared_points(self):
        result = ExperimentResult(
            "x", "t", "p", rows=[_run("ACQUIRE", x=0.1), _run("B", x=0.9)]
        )
        assert result.speedup("time_ms", "B") is None


class TestReport:
    def test_render_rows_aligned(self):
        text = render_rows([_run(), _run("Other", time_ms=1234.5)])
        lines = text.splitlines()
        assert lines[0].startswith("x")
        assert len(lines) == 4
        assert "1234.5" in text

    def test_render_result_includes_summary(self):
        rows = [_run("ACQUIRE"), _run("B", time_ms=100.0, qscore=20.0)]
        text = render_result(ExperimentResult("e", "Title", "expect", rows))
        assert "Title" in text
        assert "10.0x ACQUIRE time" in text

    def test_render_probes_column(self):
        """Repartition probes and the cells they bisected."""
        probed = _run("ACQUIRE")
        probed.repartition_probes, probed.repartitioned_cells = 16, 2
        header, _, first, second = render_rows([probed, _run()]).splitlines()
        column = header.split().index("probes")
        assert first.split()[column] == "16/2"
        assert second.split()[column] == "-"

    def test_render_handles_inf_nan(self):
        row = _run()
        row.error = math.inf
        row.aggregate_value = math.nan
        text = render_rows([row])
        assert "inf" in text and "nan" in text

    def test_save_result(self, tmp_path):
        result = ExperimentResult("unit", "T", "p", rows=[_run()])
        path = save_result(result, directory=str(tmp_path))
        assert os.path.exists(path)
        assert "T" in open(path).read()


class TestRunner:
    def test_make_backend_kinds(self, small_db):
        from repro.engine.memory_backend import MemoryBackend
        from repro.engine.sqlite_backend import SQLiteBackend

        assert isinstance(make_backend(small_db, "memory"), MemoryBackend)
        assert isinstance(make_backend(small_db, "sqlite"), SQLiteBackend)
        with pytest.raises(ReproError):
            make_backend(small_db, "oracle")

    def test_run_acquire_adapts_result(self, small_db):
        query = count_query("data", {"x": 40.0, "y": 40.0}, target=120)
        run = run_acquire(make_backend(small_db, "memory"), query)
        assert run.method == "ACQUIRE"
        assert run.satisfied
        assert run.details["cells"] > 0
        assert run.details["repartition_probes"] == (
            8 * run.details["repartitioned_cells"]
        )

    def test_run_method_dispatch(self, small_db):
        query = count_query("data", {"x": 40.0, "y": 40.0}, target=120)
        layer = make_backend(small_db, "memory")
        for name in ("ACQUIRE", "Top-k", "TQGen", "BinSearch"):
            run = run_method(name, layer, query)
            assert run.method == name

    def test_baseline_for_unknown(self):
        with pytest.raises(ReproError):
            baseline_for("SimulatedAnnealing")


class TestExperimentsSmallScale:
    """Each experiment runs end to end at toy scale."""

    def test_fig8_rows_complete(self):
        result = fig8_aggregate_ratio(
            scale_rows=600,
            ratios=(0.5,),
            methods=("ACQUIRE", "BinSearch"),
            backend="memory",
        )
        assert {row.method for row in result.rows} == {"ACQUIRE",
                                                       "BinSearch"}
        assert all(row.time_ms > 0 for row in result.rows)

    def test_fig10b_monotone_queries(self):
        result = fig10b_refinement_threshold(
            scale_rows=600, gammas=(4, 12), backend="memory"
        )
        queries = [row.queries for row in result.rows]
        assert queries[0] > queries[1]  # finer grid explores more

    def test_table1_capability_matrix(self):
        result = table1_capabilities(scale_rows=400)
        by_method = {row.method: row for row in result.rows}
        assert set(by_method["ACQUIRE"].extra["aggregates"]) == {
            "COUNT", "SUM", "MIN", "MAX", "AVG",
        }
        for baseline in ("Top-k", "TQGen", "BinSearch"):
            assert by_method[baseline].extra["aggregates"] == ["COUNT"]
        assert by_method["ACQUIRE"].extra["query_output"]
        assert not by_method["Top-k"].extra["query_output"]

    def test_binsearch_order_experiment(self):
        result = binsearch_order_sensitivity(
            scale_rows=600, backend="memory"
        )
        assert len(result.rows) == 6  # 3! orderings
        errors = [row.error for row in result.rows]
        assert max(errors) >= min(errors)


class TestCLI:
    def test_main_runs_named_experiment(self, capsys):
        os.environ["REPRO_BENCH_SCALE"] = "0.05"
        try:
            from repro.harness.__main__ import main

            assert main(["table1"]) == 0
            output = capsys.readouterr().out
            assert "capability matrix" in output
        finally:
            del os.environ["REPRO_BENCH_SCALE"]


class TestChart:
    def test_render_chart_log_scale(self):
        rows = [
            _run("ACQUIRE", time_ms=10.0, x=0.1),
            _run("TQGen", time_ms=1000.0, x=0.1),
            _run("ACQUIRE", time_ms=20.0, x=0.5),
        ]
        from repro.harness.report import render_chart

        chart = render_chart(
            ExperimentResult("e", "t", "p", rows), "time_ms"
        )
        lines = chart.splitlines()
        assert "log scale" in lines[0]
        assert len(lines) == 4
        # The slow method's bar is the longest.
        assert lines[2].count("#") > lines[1].count("#")
        # The x label prints once per group.
        assert lines[1].startswith("ratio=0.1")
        assert lines[2].startswith(" ")

    def test_render_chart_empty_metric(self):
        import math

        from repro.harness.report import render_chart

        row = _run()
        row.time_ms = math.inf
        chart = render_chart(ExperimentResult("e", "t", "p", [row]))
        assert chart == ""


class TestCSVOutput:
    def test_save_writes_csv_next_to_txt(self, tmp_path):
        import csv

        from repro.harness.report import save_result

        result = ExperimentResult("unit2", "T", "p", rows=[_run(), _run("B")])
        save_result(result, directory=str(tmp_path))
        csv_path = tmp_path / "unit2.csv"
        assert csv_path.exists()
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "x_name"
        assert len(rows) == 3
        assert rows[1][2] == "M"
