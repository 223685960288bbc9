"""Figures 10b and 10c: ACQUIRE's internal parameter studies.

10b sweeps the refinement threshold gamma (grid granularity); 10c the
cardinality threshold delta. Both shapes from the paper: "a stringent
cardinality and refinement threshold produces proportional increases
in the ACQUIRE execution time as more queries need to be explored."
"""

from benchmarks.conftest import run_once
from repro.harness.experiments import (
    fig10b_refinement_threshold,
    fig10c_cardinality_threshold,
)


def test_fig10b_refinement_threshold(benchmark, record_experiment):
    result = run_once(
        benchmark, fig10b_refinement_threshold, scale_rows=20_000
    )
    record_experiment(result)

    # The paper's quantity is explored grid queries; ``queries``
    # counts backend round trips, one per shell pass.
    explored = {
        row.x_value: row.extra["grid_queries"]
        for row in result.rows
        if row.method == "ACQUIRE"
    }
    # Finer grids (small gamma) explore strictly more queries; the
    # trend must be monotone non-increasing in gamma.
    counts = [explored[g] for g in sorted(explored)]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] >= 5 * counts[-1]
    # All runs still meet the constraint.
    assert all(row.satisfied for row in result.rows)


def test_fig10c_cardinality_threshold(benchmark, record_experiment):
    result = run_once(
        benchmark, fig10c_cardinality_threshold, scale_rows=20_000
    )
    record_experiment(result)

    queries = dict(result.series("ACQUIRE", "queries"))
    deltas = sorted(queries)
    # Tighter delta explores at least as many queries.
    counts = [queries[d] for d in deltas]
    assert counts == sorted(counts, reverse=True)
    # The loosest threshold is satisfied; errors respect each delta
    # whenever satisfied.
    for row in result.rows:
        if row.satisfied:
            assert row.error <= row.x_value + 1e-12
