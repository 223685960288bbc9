"""Section 3 extension: swapping the evaluation layer.

The paper: ACQUIRE's evaluation layer "is modular and can be replaced
with other techniques such as estimation, and/or sampling". Runs the
same ACQ through the exact memory engine, SQLite, a fact-table
Bernoulli sample, and marginal-histogram estimation, comparing cost
against the *validated* quality of the recommendation.
"""

import os

from benchmarks.conftest import run_once
from repro.harness.experiments import evaluation_layers
from repro.harness.report import save_json


def test_evaluation_layers(benchmark, record_experiment):
    result = run_once(benchmark, evaluation_layers, scale_rows=30_000)
    record_experiment(result)
    json_path = save_json(
        result, os.path.join("benchmarks", "results", "BENCH_layers.json")
    )
    assert os.path.exists(json_path)

    rows = {row.method: row for row in result.rows}
    # Exact layers agree with each other on the recommendation.
    assert rows["memory"].qscore == rows["sqlite"].qscore
    assert rows["memory"].aggregate_value == rows["sqlite"].aggregate_value
    # Approximate layers still produce a recommendation whose
    # *validated* error is bounded (sampling variance permitting).
    for approx in ("sampling", "histogram"):
        assert rows[approx].extra["validated_error"] < 0.5, approx
    # The histogram layer touches rows exactly once (prepare).
    assert rows["histogram"].rows_scanned <= rows["memory"].rows_scanned
    # Sampling runs on 10x fewer tuples, hence clearly cheaper than
    # exact memory execution.
    assert rows["sampling"].time_ms < rows["memory"].time_ms * 1.5
