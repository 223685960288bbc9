"""Table 1: the related-work capability matrix, probed empirically.

The paper's Table 1 contrasts the techniques on supported aggregates,
proximity criteria, cardinality constraints and refined-query output.
Here each implementation is *asked* to process each aggregate, its
COUNT run's PScores are executed as one box query (query output), and
the matrix is assembled from what actually runs.
"""

from benchmarks.conftest import run_once
from repro.harness.experiments import table1_capabilities


def test_table1_capabilities(benchmark, record_experiment):
    result = run_once(benchmark, table1_capabilities)
    record_experiment(result)

    matrix = {row.method: row.extra for row in result.rows}
    # ACQUIRE: COUNT, SUM, MIN, MAX, AVG (+ proximity + query output).
    assert set(matrix["ACQUIRE"]["aggregates"]) == {
        "COUNT", "SUM", "MIN", "MAX", "AVG",
    }
    assert matrix["ACQUIRE"]["proximity"]
    assert matrix["ACQUIRE"]["query_output"]
    # Every baseline is COUNT-only, exactly as the paper's Table 1.
    for baseline in ("Top-k", "TQGen", "BinSearch"):
        assert matrix[baseline]["aggregates"] == ["COUNT"], baseline
    # Tuple-oriented Top-k ranks by proximity but emits no query;
    # the query-oriented baselines emit queries but ignore proximity.
    assert matrix["Top-k"]["proximity"] and not matrix["Top-k"]["query_output"]
    assert matrix["TQGen"]["query_output"] and not matrix["TQGen"]["proximity"]
    assert matrix["BinSearch"]["query_output"]
