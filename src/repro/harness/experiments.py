"""Per-figure experiment definitions (paper section 8).

Every public function regenerates one table/figure of the paper's
evaluation and returns an :class:`ExperimentResult` whose rows carry
the same metrics the paper plots: execution time, relative aggregate
error, and refinement score.

Scaling note: the paper ran on 1M-tuple TPC-H with a Postgres backend
on 2006-era hardware; defaults here are sized for a single-core CI
machine (tens of thousands of tuples, SQLite backend). Shapes — who
wins, how curves trend — are the reproduction target, not absolute
milliseconds; every default can be scaled up via the function
arguments or the ``REPRO_BENCH_SCALE`` environment variable.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence

from repro.core.acquire import AcquireConfig
from repro.core.grid_cache import GridTensorCache
from repro.core.query import ConstraintOp
from repro.datagen.tpch import TPCHConfig, generate_tpch
from repro.engine.backends import EvaluationLayer
from repro.engine.catalog import Database
from repro.exceptions import QueryModelError
from repro.harness.metrics import ExperimentResult, Row
from repro.harness.runner import make_backend, preflight_query, run_method
from repro.workloads.generator import build_ratio_workload
from repro.workloads.templates import Q2_JOINS, Q2_TABLES, q2_flex_specs

ALL_METHODS = ("ACQUIRE", "Top-k", "TQGen", "BinSearch")
RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: Per-dimension base selectivity of flexible predicates. Low base
#: selectivity with domain-width PScore denominators reproduces the
#: paper's regime of small refinement scores (Figure 8c's 1-6 for
#: ACQUIRE): narrow slivers in dense regions grow fast per unit of
#: percent refinement.
BASE_SELECTIVITY = 0.2


def bench_scale() -> float:
    """Global size multiplier from the environment (default 1.0)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _scaled(rows: int) -> int:
    return max(int(rows * bench_scale()), 200)


def _tpch(scale_rows: int, zipf_z: float = 0.0, seed: int = 7) -> Database:
    return generate_tpch(
        TPCHConfig(
            scale_rows=scale_rows,
            zipf_z=zipf_z,
            seed=seed,
            tables=("supplier", "part", "partsupp"),
        )
    )


def _baseline_kwargs(method: str, tqgen: Optional[dict]) -> dict:
    if method == "TQGen" and tqgen:
        return dict(tqgen)
    return {}


def _run_point(
    rows: list[Row],
    x_name: str,
    x_value: object,
    methods: Sequence[str],
    layer: EvaluationLayer,
    workload,
    config: AcquireConfig,
    tqgen: Optional[dict] = None,
) -> None:
    # Fail a misconfigured sweep in milliseconds, not after a long run.
    report = preflight_query(layer, workload.query, config)
    # Surface the analyzer's plan verdicts (ACQ5xx: grid over the
    # tensor cap, config-keyed cache geometry) next to the
    # measurements, so a benchmark config silently exceeding the cell
    # cap is visible in the saved result rows.
    plan_warnings = (
        sum(
            1
            for diagnostic in report.diagnostics
            if diagnostic.code.startswith("ACQ5")
            and diagnostic.severity.name != "INFO"
        )
        if report is not None
        else 0
    )
    for method in methods:
        run = run_method(
            method,
            layer,
            workload.query,
            acquire_config=config,
            baseline_kwargs=_baseline_kwargs(method, tqgen),
        )
        row = Row.from_run(x_name, x_value, run)
        row.extra.setdefault("target", workload.target)
        row.extra.setdefault("original", workload.original_value)
        row.extra.setdefault("plan_warnings", plan_warnings)
        rows.append(row)


def _warm(layer: EvaluationLayer, workloads) -> None:
    """Prepare each workload's query once, before the sweep and outside
    any timing: on SQLite the first prepare of a query loads its tables
    and indexes its predicate columns, which would otherwise land in
    the first method's time and in no other's."""
    for workload in workloads:
        layer.prepare(workload.query)


# ----------------------------------------------------------------------
# Figure 8: varying aggregate ratio
# ----------------------------------------------------------------------
def fig8_aggregate_ratio(
    scale_rows: int = 30_000,
    ratios: Sequence[float] = RATIOS,
    methods: Sequence[str] = ALL_METHODS,
    backend: str = "sqlite",
    gamma: float = 10.0,
    delta: float = 0.05,
    selectivity: float = BASE_SELECTIVITY,
    tqgen: Optional[dict] = None,
) -> ExperimentResult:
    """Figure 8: COUNT ACQ on the Q2 join, 3 flexible predicates,
    aggregate ratio swept 0.1-0.9, delta = 0.05."""
    tqgen = tqgen or {"grid_points": 5, "rounds": 4}
    database = _tpch(_scaled(scale_rows))
    layer = make_backend(database, backend)
    config = AcquireConfig(gamma=gamma, delta=delta)
    workloads = [
        build_ratio_workload(
            database,
            Q2_TABLES,
            q2_flex_specs(3, selectivity),
            ratio,
            aggregate="COUNT",
            joins=Q2_JOINS,
            name=f"fig8_r{ratio:g}",
        )
        for ratio in ratios
    ]
    # Every ratio has the same predicates: one prepare loads them all.
    _warm(layer, workloads[:1])
    rows: list[Row] = []
    for ratio, workload in zip(ratios, workloads):
        _run_point(
            rows, "ratio", ratio, methods, layer, workload, config, tqgen
        )
    return ExperimentResult(
        name="fig8",
        title="Fig 8: performance vs aggregate ratio (time / error / refinement)",
        paper_expectation=(
            "ACQUIRE time grows as the ratio shrinks; TQGen is slowest "
            "(paper: ~100X over ACQUIRE), BinSearch ~2X slower than "
            "ACQUIRE with erratic error, Top-k ~3.7X slower on average; "
            "ACQUIRE error always <= delta; ACQUIRE refinement scores "
            "2-3X below every baseline."
        ),
        rows=rows,
        settings={
            "scale_rows": _scaled(scale_rows),
            "backend": backend,
            "gamma": gamma,
            "delta": delta,
            "selectivity": selectivity,
            "tqgen": tqgen,
        },
    )


# ----------------------------------------------------------------------
# Figure 9: varying dimensionality
# ----------------------------------------------------------------------
def fig9_dimensionality(
    scale_rows: int = 6_000,
    dims: Sequence[int] = (1, 2, 3, 4, 5),
    ratio: float = 0.3,
    methods: Sequence[str] = ALL_METHODS,
    backend: str = "sqlite",
    gamma: float = 10.0,
    delta: float = 0.05,
    step: float = 5.0,
    tqgen: Optional[dict] = None,
) -> ExperimentResult:
    """Figure 9: ratio fixed at 0.3, flexible predicates swept 1-5.

    Two disclosed calibrations keep high-d runs tractable at laptop
    scale (both noted in EXPERIMENTS.md): the grid step is pinned at
    ``step`` for every d instead of the gamma/d rule (which at d=5
    would mean exploring ~10^6 grid cells on our data), and per-
    dimension base selectivity follows a per-d schedule so the original
    query's cardinality stays non-degenerate while the ratio-0.3 target
    remains attainable within a few grid steps at every d.
    """
    tqgen = tqgen or {"grid_points": 4, "rounds": 4}
    database = _tpch(_scaled(scale_rows))
    layer = make_backend(database, backend)
    config = AcquireConfig(gamma=gamma, delta=delta, step=step)
    # Per-d base selectivity: keeps the original cardinality
    # non-degenerate while the growth to the ratio-0.3 target stays
    # within a few grid steps per dimension at every d.
    selectivities = {1: 0.27, 2: 0.52, 3: 0.55, 4: 0.45, 5: 0.40}
    workloads = [
        build_ratio_workload(
            database,
            Q2_TABLES,
            q2_flex_specs(d, selectivities.get(d, 0.4)),
            ratio,
            aggregate="COUNT",
            joins=Q2_JOINS,
            name=f"fig9_d{d}",
        )
        for d in dims
    ]
    # Each d refines more columns, so each prepare may index more.
    _warm(layer, workloads)
    rows: list[Row] = []
    for d, workload in zip(dims, workloads):
        _run_point(rows, "dims", d, methods, layer, workload, config, tqgen)
    return ExperimentResult(
        name="fig9",
        title="Fig 9: performance vs number of flexible predicates",
        paper_expectation=(
            "TQGen explodes exponentially with d (paper: up to 500X over "
            "ACQUIRE at d=5); ACQUIRE grows far slower; Top-k stays "
            "~flat; BinSearch error is unstable (up to 45%); ACQUIRE "
            "keeps the lowest refinement scores."
        ),
        rows=rows,
        settings={
            "scale_rows": _scaled(scale_rows),
            "ratio": ratio,
            "backend": backend,
            "tqgen": tqgen,
        },
    )


# ----------------------------------------------------------------------
# Figure 10a: varying table size
# ----------------------------------------------------------------------
def fig10a_table_size(
    sizes: Sequence[int] = (1_000, 10_000, 50_000),
    ratio: float = 0.3,
    methods: Sequence[str] = ALL_METHODS,
    backend: str = "sqlite",
    gamma: float = 10.0,
    delta: float = 0.05,
    selectivity: float = BASE_SELECTIVITY,
    tqgen: Optional[dict] = None,
) -> ExperimentResult:
    """Figure 10a: 1K-tuple (sampling-sized) through larger tables."""
    tqgen = tqgen or {"grid_points": 5, "rounds": 4}
    config = AcquireConfig(gamma=gamma, delta=delta)
    rows: list[Row] = []
    for size in sizes:
        database = _tpch(_scaled(size))
        layer = make_backend(database, backend)
        workload = build_ratio_workload(
            database,
            Q2_TABLES,
            q2_flex_specs(3, selectivity),
            ratio,
            aggregate="COUNT",
            joins=Q2_JOINS,
            name=f"fig10a_n{size}",
        )
        _run_point(
            rows, "table_size", _scaled(size), methods, layer, workload,
            config, tqgen,
        )
    return ExperimentResult(
        name="fig10a",
        title="Fig 10a: execution time vs table size",
        paper_expectation=(
            "All methods grow ~proportionally with table size; Top-k is "
            "competitive only at the smallest (sample-sized) tables and "
            "degrades fastest as size grows."
        ),
        rows=rows,
        settings={"sizes": [_scaled(s) for s in sizes], "ratio": ratio,
                  "backend": backend},
    )


# ----------------------------------------------------------------------
# Figure 10b/10c: ACQUIRE parameter studies
# ----------------------------------------------------------------------
def fig10b_refinement_threshold(
    scale_rows: int = 20_000,
    gammas: Sequence[float] = (2, 4, 6, 8, 10, 12),
    ratio: float = 0.3,
    backend: str = "sqlite",
    delta: float = 0.05,
    selectivity: float = BASE_SELECTIVITY,
) -> ExperimentResult:
    """Figure 10b: ACQUIRE execution time vs refinement threshold gamma."""
    database = _tpch(_scaled(scale_rows))
    layer = make_backend(database, backend)
    workload = build_ratio_workload(
        database,
        Q2_TABLES,
        q2_flex_specs(3, selectivity),
        ratio,
        aggregate="COUNT",
        joins=Q2_JOINS,
        name="fig10b",
    )
    rows: list[Row] = []
    for gamma in gammas:
        config = AcquireConfig(gamma=float(gamma), delta=delta)
        _run_point(rows, "gamma", gamma, ("ACQUIRE",), layer, workload, config)
    return ExperimentResult(
        name="fig10b",
        title="Fig 10b: ACQUIRE time vs refinement threshold",
        paper_expectation=(
            "A stringent (small) refinement threshold means a finer grid "
            "and proportionally more explored queries, hence more time."
        ),
        rows=rows,
        settings={"scale_rows": _scaled(scale_rows), "ratio": ratio,
                  "delta": delta},
    )


def fig10c_cardinality_threshold(
    scale_rows: int = 20_000,
    deltas: Sequence[float] = (0.0001, 0.001, 0.01, 0.1),
    ratio: float = 0.3,
    backend: str = "sqlite",
    gamma: float = 10.0,
    selectivity: float = 0.5,
) -> ExperimentResult:
    """Figure 10c: ACQUIRE execution time vs cardinality threshold delta.

    Base selectivity is raised to 0.5 per dimension so the original
    cardinality is large enough that the strictest threshold (1e-4 of
    the target) is attainable with integer counts — the regime the
    paper's 1M-tuple runs were in."""
    database = _tpch(_scaled(scale_rows))
    layer = make_backend(database, backend)
    workload = build_ratio_workload(
        database,
        Q2_TABLES,
        q2_flex_specs(3, selectivity),
        ratio,
        aggregate="COUNT",
        joins=Q2_JOINS,
        name="fig10c",
    )
    rows: list[Row] = []
    for delta in deltas:
        config = AcquireConfig(gamma=gamma, delta=float(delta))
        _run_point(rows, "delta", delta, ("ACQUIRE",), layer, workload, config)
    return ExperimentResult(
        name="fig10c",
        title="Fig 10c: ACQUIRE time vs cardinality threshold",
        paper_expectation=(
            "Tighter cardinality thresholds require exploring more "
            "queries (and repartitioning more cells), increasing time "
            "proportionally."
        ),
        rows=rows,
        settings={"scale_rows": _scaled(scale_rows), "ratio": ratio,
                  "gamma": gamma},
    )


# ----------------------------------------------------------------------
# Figure 11: aggregate types
# ----------------------------------------------------------------------
def fig11_aggregate_types(
    scale_rows: int = 20_000,
    ratios: Sequence[float] = RATIOS,
    backend: str = "sqlite",
    gamma: float = 10.0,
    delta: float = 0.05,
    selectivity: float = BASE_SELECTIVITY,
) -> ExperimentResult:
    """Figure 11: ACQUIRE with SUM, COUNT and MAX constraints.

    MIN is omitted exactly as in the paper (MIN(x) = -MAX(-x)). The
    SUM constraint mirrors Q2' (SUM(ps_availqty) >=); MAX reads
    p_retailprice, which co-moves with a flexible predicate so the
    ratio sweep is meaningful. MAX targets beyond the attribute domain
    are unattainable at any refinement; those points are recorded with
    ``attainable=False`` instead of burning time proving it.
    """
    database = _tpch(_scaled(scale_rows))
    layer = make_backend(database, backend)
    config = AcquireConfig(gamma=gamma, delta=delta)
    aggregates = (
        ("COUNT", None, ConstraintOp.EQ),
        ("SUM", "partsupp.ps_availqty", ConstraintOp.GE),
        ("MAX", "part.p_retailprice", ConstraintOp.GE),
    )
    max_domain = database.column_stats("part", "p_retailprice").max_value
    rows: list[Row] = []
    for agg_name, attr, op in aggregates:
        for ratio in ratios:
            workload = build_ratio_workload(
                database,
                Q2_TABLES,
                q2_flex_specs(3, selectivity),
                ratio,
                aggregate=agg_name,
                aggregate_attr=attr,
                joins=Q2_JOINS,
                op=op,
                name=f"fig11_{agg_name}_{ratio:g}",
            )
            if agg_name == "MAX" and workload.target > max_domain:
                rows.append(
                    Row(
                        x_name="ratio",
                        x_value=ratio,
                        method=agg_name,
                        time_ms=0.0,
                        error=math.inf,
                        qscore=math.inf,
                        aggregate_value=math.nan,
                        queries=0,
                        rows_scanned=0,
                        satisfied=False,
                        extra={"attainable": False,
                               "target": workload.target},
                    )
                )
                continue
            run = run_method(
                "ACQUIRE", layer, workload.query, acquire_config=config
            )
            run.method = agg_name  # series label = the aggregate
            row = Row.from_run("ratio", ratio, run)
            row.extra["target"] = workload.target
            rows.append(row)
    return ExperimentResult(
        name="fig11",
        title="Fig 11: ACQUIRE across aggregate types (SUM/COUNT/MAX)",
        paper_expectation=(
            "ACQUIRE reaches the aggregate threshold for every OSP "
            "aggregate, with time/refinement trends matching COUNT's."
        ),
        rows=rows,
        settings={"scale_rows": _scaled(scale_rows), "gamma": gamma,
                  "delta": delta},
    )


# ----------------------------------------------------------------------
# Section 8.4.4: data distributions
# ----------------------------------------------------------------------
def skew_distribution(
    scale_rows: int = 20_000,
    zipf_zs: Sequence[float] = (0.0, 1.0),
    ratio: float = 0.3,
    methods: Sequence[str] = ALL_METHODS,
    backend: str = "sqlite",
    gamma: float = 10.0,
    delta: float = 0.05,
    selectivity: float = BASE_SELECTIVITY,
    tqgen: Optional[dict] = None,
) -> ExperimentResult:
    """Section 8.4.4: re-run the comparison on Zipf z=1 skewed data."""
    tqgen = tqgen or {"grid_points": 5, "rounds": 4}
    config = AcquireConfig(gamma=gamma, delta=delta)
    rows: list[Row] = []
    for z in zipf_zs:
        database = _tpch(_scaled(scale_rows), zipf_z=z)
        layer = make_backend(database, backend)
        workload = build_ratio_workload(
            database,
            Q2_TABLES,
            q2_flex_specs(3, selectivity),
            ratio,
            aggregate="COUNT",
            joins=Q2_JOINS,
            name=f"skew_z{z:g}",
        )
        _run_point(rows, "zipf_z", z, methods, layer, workload, config, tqgen)
    return ExperimentResult(
        name="skew",
        title="Sec 8.4.4: uniform (z=0) vs skewed (z=1) data",
        paper_expectation=(
            "Trends on skewed data match the uniform case: same method "
            "ordering for time, error and refinement."
        ),
        rows=rows,
        settings={"scale_rows": _scaled(scale_rows), "ratio": ratio},
    )


# ----------------------------------------------------------------------
# Table 1: related-work capability matrix
# ----------------------------------------------------------------------
def table1_capabilities(
    scale_rows: int = 2_000, backend: str = "memory"
) -> ExperimentResult:
    """Table 1: probe each implementation's actual capabilities.

    Aggregate support is probed empirically — each technique is asked
    to run a workload per aggregate and either completes or refuses —
    rather than asserted, so the matrix is a living property of the
    code.
    """
    database = _tpch(_scaled(scale_rows))
    layer = make_backend(database, backend)
    config = AcquireConfig(gamma=10.0, delta=0.1)
    aggregates = (
        ("COUNT", None, ConstraintOp.EQ),
        ("SUM", "partsupp.ps_availqty", ConstraintOp.GE),
        ("MIN", "part.p_retailprice", ConstraintOp.GE),
        ("MAX", "part.p_retailprice", ConstraintOp.GE),
        ("AVG", "part.p_retailprice", ConstraintOp.EQ),
    )
    rows: list[Row] = []
    for method in (*ALL_METHODS, "HillClimbing", "Skyline"):
        supported = []
        for agg_name, attr, op in aggregates:
            workload = build_ratio_workload(
                database,
                Q2_TABLES,
                q2_flex_specs(2, 0.4),
                0.8,
                aggregate=agg_name,
                aggregate_attr=attr,
                joins=Q2_JOINS,
                op=op,
                name=f"table1_{method}_{agg_name}",
            )
            try:
                run = run_method(
                    method, layer, workload.query, acquire_config=config
                )
                supported.append(agg_name)
                del run
            except QueryModelError:
                continue
        rows.append(
            Row(
                x_name="capability",
                x_value="aggregates",
                method=method,
                time_ms=0.0,
                error=0.0,
                qscore=0.0,
                aggregate_value=float(len(supported)),
                queries=0,
                rows_scanned=0,
                satisfied=True,
                extra={
                    "aggregates": supported,
                    "proximity": method in ("ACQUIRE", "Top-k",
                                            "Skyline"),
                    "cardinality": True,
                    "query_output": method in ("ACQUIRE", "TQGen",
                                               "BinSearch",
                                               "HillClimbing"),
                },
            )
        )
    return ExperimentResult(
        name="table1",
        title="Table 1: technique capability matrix (probed)",
        paper_expectation=(
            "Only ACQUIRE supports COUNT, SUM, MIN, MAX and AVG with "
            "both proximity and cardinality criteria while emitting "
            "refined queries; the baselines are COUNT-only."
        ),
        rows=rows,
        settings={"scale_rows": _scaled(scale_rows)},
    )


# ----------------------------------------------------------------------
# Query-shape robustness (generalization beyond the paper's one shape)
# ----------------------------------------------------------------------
def shape_robustness(
    scale_rows: int = 10_000,
    ratio: float = 0.3,
    methods: Sequence[str] = ALL_METHODS,
    backend: str = "sqlite",
    gamma: float = 10.0,
    delta: float = 0.05,
    selectivity: float = BASE_SELECTIVITY,
    tqgen: Optional[dict] = None,
) -> ExperimentResult:
    """The paper evaluates one query shape (the Q2 star join); this
    extension re-runs the comparison on three shapes — a single wide
    fact table, a two-table FK join, and the three-table star — to
    check the method ordering is not an artifact of the shape."""
    from repro.datagen.tpch import TPCHConfig, generate_tpch
    from repro.workloads.templates import (
        LINEITEM_JOINS,
        lineitem_flex_specs,
    )

    tqgen = tqgen or {"grid_points": 4, "rounds": 4}
    database = generate_tpch(
        TPCHConfig(scale_rows=_scaled(scale_rows), seed=7)
    )
    layer = make_backend(database, backend)
    config = AcquireConfig(gamma=gamma, delta=delta)
    shapes = (
        (
            "single-table",
            ("lineitem",),
            lineitem_flex_specs(3, selectivity),
            (),
        ),
        (
            "fk-join",
            ("lineitem", "orders"),
            lineitem_flex_specs(3, selectivity, with_orders=True),
            LINEITEM_JOINS,
        ),
        ("star-join", Q2_TABLES, q2_flex_specs(3, selectivity), Q2_JOINS),
    )
    rows: list[Row] = []
    for name, tables, flexible, joins in shapes:
        workload = build_ratio_workload(
            database,
            tables,
            flexible,
            ratio,
            aggregate="COUNT",
            joins=joins,
            name=f"shape_{name}",
        )
        _run_point(rows, "shape", name, methods, layer, workload, config,
                   tqgen)
    return ExperimentResult(
        name="shapes",
        title="Extension: method ordering across query shapes",
        paper_expectation=(
            "ACQUIRE meets delta with the lowest refinement on every "
            "shape; TQGen stays the slowest; the ordering is not an "
            "artifact of the Q2 star join."
        ),
        rows=rows,
        settings={"scale_rows": _scaled(scale_rows), "ratio": ratio,
                  "backend": backend},
    )


# ----------------------------------------------------------------------
# Section 3's modular evaluation layer: exact vs sampling vs estimation
# ----------------------------------------------------------------------
def evaluation_layers(
    scale_rows: int = 30_000,
    ratio: float = 0.3,
    gamma: float = 10.0,
    delta: float = 0.05,
    sampling_fraction: float = 0.1,
    selectivity: float = BASE_SELECTIVITY,
    explore_mode: str = "incremental",
) -> ExperimentResult:
    """Paper section 3: "the evaluation layer is modular and can be
    replaced with other techniques such as estimation, and/or sampling."

    Runs the same ACQ through four layers — exact (memory), exact
    (SQLite), Bernoulli sampling, and histogram estimation — and
    reports each layer's cost plus the *validated* error: the
    recommended refined query re-executed exactly, which is what the
    user ultimately experiences.
    """
    from repro.core.aggregates import COUNT as _COUNT
    from repro.engine.histogram_backend import HistogramBackend
    from repro.engine.memory_backend import MemoryBackend
    from repro.engine.sampling import SamplingBackend
    from repro.engine.sqlite_backend import SQLiteBackend

    database = _tpch(_scaled(scale_rows))
    workload = build_ratio_workload(
        database,
        Q2_TABLES,
        q2_flex_specs(3, selectivity),
        ratio,
        aggregate="COUNT",
        joins=Q2_JOINS,
        name="layers",
    )
    config = AcquireConfig(
        gamma=gamma, delta=delta, explore_mode=explore_mode
    )
    validator = MemoryBackend(database)
    validator_prepared = validator.prepare(
        workload.query, [config.dim_cap_default] * 3
    )
    layers = (
        ("memory", MemoryBackend(database)),
        ("sqlite", SQLiteBackend(database)),
        ("sampling",
         SamplingBackend(database, sampling_fraction, seed=3,
                         tables=("partsupp",))),
        ("histogram", HistogramBackend(database)),
    )
    rows: list[Row] = []
    for name, layer in layers:
        run = run_method("ACQUIRE", layer, workload.query,
                         acquire_config=config)
        run.method = name
        if run.pscores:
            true_value = _COUNT.finalize(
                validator.execute_box(validator_prepared, run.pscores)
            )
            run.details["validated_value"] = true_value
            run.details["validated_error"] = (
                abs(workload.target - true_value) / workload.target
            )
        rows.append(Row.from_run("layer", name, run))
    return ExperimentResult(
        name="layers",
        title="Sec 3: evaluation-layer substitution "
              "(exact / sampling / estimation)",
        paper_expectation=(
            "ACQUIRE runs unchanged over approximate evaluation layers; "
            "sampling and estimation cut execution cost while the "
            "recommended query's validated error stays small."
        ),
        rows=rows,
        settings={
            "scale_rows": _scaled(scale_rows),
            "ratio": ratio,
            "sampling_fraction": sampling_fraction,
            "explore_mode": explore_mode,
        },
    )


# ----------------------------------------------------------------------
# Round trips of the Explore engines: incremental vs materialized vs auto
# ----------------------------------------------------------------------
def explore_modes(
    scale_rows: int = 8_000,
    ratio: float = 0.25,
    gamma: float = 10.0,
    delta: float = 0.05,
    step: float = 5.0,
    selectivity: float = BASE_SELECTIVITY,
    backends: Sequence[str] = ("memory", "sqlite"),
) -> ExperimentResult:
    """Round-trip profile of the three Explore configurations.

    Runs one 2-dimensional COUNT ACQ on the Q2 join through serial
    (one query per cell), materialized (one round trip for the whole
    grid), and auto (one grid pass per QScore shell of the cells the
    search reaches) on each exact backend. All three produce identical
    answer sets — ``benchmarks/smoke.py`` asserts the qscore column is
    constant per backend — so the interesting columns are ``queries``
    (round trips), ``grids`` and ``explore``.
    """
    database = _tpch(_scaled(scale_rows))
    workload = build_ratio_workload(
        database,
        Q2_TABLES,
        q2_flex_specs(2, selectivity),
        ratio,
        aggregate="COUNT",
        joins=Q2_JOINS,
        name="explore",
    )
    modes = (
        ("serial", "incremental"),
        ("materialized", "materialized"),
        ("auto", "auto"),
    )
    rows: list[Row] = []
    for backend in backends:
        layer = make_backend(database, backend)
        for mode, explore_mode in modes:
            config = AcquireConfig(
                gamma=gamma, delta=delta, step=step,
                explore_mode=explore_mode,
            )
            run = run_method("ACQUIRE", layer, workload.query,
                             acquire_config=config)
            run.method = f"{backend}/{mode}"
            rows.append(Row.from_run("mode", mode, run))
    return ExperimentResult(
        name="explore",
        title="Explore engines: serial vs materialized vs auto "
              "(round trips)",
        paper_expectation=(
            "All engines return identical answer sets; materialization "
            "collapses round trips to one per search, while auto reads "
            "QScore shells: at most serial's round trips plus one, one "
            "grid pass per growth factor of the QScore it reaches."
        ),
        rows=rows,
        settings={
            "scale_rows": _scaled(scale_rows),
            "ratio": ratio,
            "gamma": gamma,
            "delta": delta,
            "step": step,
            "selectivity": selectivity,
        },
    )


def grid_cache_sweep(
    scale_rows: int = 6_000,
    ratios: Sequence[float] = (0.5, 0.35, 0.25, 0.15),
    gamma: float = 10.0,
    delta: float = 0.05,
    step: float = 5.0,
    selectivity: float = BASE_SELECTIVITY,
    backend: str = "memory",
    cache_mb: int = 64,
) -> ExperimentResult:
    """Constraint sweep with and without the grid tensor cache.

    The cache key excludes the constraint target, so a sweep over
    cardinality ratios (same tables, predicates and aggregate; only
    the target changes) re-materializes the identical grid tensor at
    every point without the cache and computes it exactly once with
    it. ``benchmarks/smoke.py`` gates on the cached arm issuing
    strictly fewer backend queries.
    """
    database = _tpch(_scaled(scale_rows))
    arms = (
        ("uncached", None),
        ("cached", GridTensorCache(cache_mb * 1024 * 1024)),
    )
    rows: list[Row] = []
    for arm, cache in arms:
        layer = make_backend(database, backend)
        for ratio in ratios:
            workload = build_ratio_workload(
                database,
                Q2_TABLES,
                q2_flex_specs(2, selectivity),
                ratio,
                aggregate="COUNT",
                joins=Q2_JOINS,
                name=f"cache_{ratio:g}",
            )
            config = AcquireConfig(
                gamma=gamma,
                delta=delta,
                step=step,
                explore_mode="materialized",
                grid_cache=cache,
            )
            run = run_method(
                "ACQUIRE", layer, workload.query, acquire_config=config
            )
            run.method = f"{backend}/{arm}"
            rows.append(Row.from_run("ratio", ratio, run))
    return ExperimentResult(
        name="grid_cache",
        title="Grid tensor cache: backend passes across a constraint "
              "sweep",
        paper_expectation=(
            "Materialization cost is target-independent, so caching "
            "the grid tensor across sweep points leaves answers "
            "bit-identical while only the first point pays the "
            "backend grid pass."
        ),
        rows=rows,
        settings={
            "scale_rows": _scaled(scale_rows),
            "ratios": list(ratios),
            "gamma": gamma,
            "delta": delta,
            "step": step,
            "selectivity": selectivity,
            "backend": backend,
            "cache_mb": cache_mb,
        },
    )


def persistent_cache(
    scale_rows: int = 4_000,
    ratios: Sequence[float] = (0.5, 0.3),
    backend: str = "memory",
    gamma: float = 10.0,
    delta: float = 0.05,
    step: float = 5.0,
    selectivity: float = BASE_SELECTIVITY,
) -> ExperimentResult:
    """Cross-process grid cache: a cold and a warm subprocess.

    Runs the same materialized-mode sweep in two fresh Python
    processes sharing one on-disk :class:`PersistentGridCache`
    directory (see :mod:`repro.harness._persistent_worker`). The cold
    process pays every backend grid pass and publishes the tensors;
    the warm process — no shared memory, only the cache directory —
    must answer identically while issuing strictly fewer backend
    queries. ``benchmarks/smoke.py`` gates on exactly that.
    """
    import subprocess
    import sys as _sys
    import tempfile

    rows: list[Row] = []
    with tempfile.TemporaryDirectory(prefix="repro-pcache-") as cache_dir:
        command = [
            _sys.executable,
            "-m",
            "repro.harness._persistent_worker",
            "--cache-dir", cache_dir,
            "--scale-rows", str(_scaled(scale_rows)),
            "--ratios", ",".join(f"{r:g}" for r in ratios),
            "--backend", backend,
            "--gamma", str(gamma),
            "--delta", str(delta),
            "--step", str(step),
            "--selectivity", str(selectivity),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [path for path in _sys.path if path]
        )
        summaries = {}
        for arm in ("cold", "warm"):
            completed = subprocess.run(
                command,
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            import json as _json

            summaries[arm] = _json.loads(completed.stdout)
        for arm in ("cold", "warm"):
            summary = summaries[arm]
            rows.append(
                Row(
                    x_name="arm",
                    x_value=arm,
                    method=f"{backend}/{arm}",
                    time_ms=0.0,
                    error=0.0,
                    qscore=float(summary["qscores"][0]),
                    aggregate_value=math.nan,
                    queries=summary["queries"],
                    rows_scanned=summary["rows_scanned"],
                    satisfied=True,
                    cache_hits=summary["cache_hits"],
                    cache_misses=summary["cache_misses"],
                    persistent_hits=summary["persistent_hits"],
                    block_hits=summary["block_hits"],
                    cache_bytes=summary["persistent_bytes"],
                    explore_mode="materialized",
                    extra={
                        "qscores": summary["qscores"],
                        "store": summary["store"],
                    },
                )
            )
    return ExperimentResult(
        name="persistent_cache",
        title="Persistent grid cache: cold vs warm process over one "
              "cache directory",
        paper_expectation=(
            "Grid tensors are pure functions of (data fingerprint, "
            "geometry), so a second process over the same data serves "
            "every tensor from disk: identical qscores, strictly fewer "
            "backend queries, nonzero persistent-hit bytes."
        ),
        rows=rows,
        settings={
            "scale_rows": _scaled(scale_rows),
            "ratios": list(ratios),
            "backend": backend,
            "gamma": gamma,
            "delta": delta,
            "step": step,
        },
    )


# ----------------------------------------------------------------------
# Section 8.4.1's BinSearch critique: ordering sensitivity
# ----------------------------------------------------------------------
def binsearch_order_sensitivity(
    scale_rows: int = 20_000,
    ratio: float = 0.15,
    backend: str = "sqlite",
    delta: float = 0.05,
) -> ExperimentResult:
    """Reproduce "even a single change to the order can change the
    error by a factor of 100" (section 8.4.1).

    Runs BinSearch under every permutation of three flexible
    predicates — one of them the coarse integer ``p_size`` whose
    cardinality jumps make bisection land far from the target — and
    reports the per-ordering error spread.
    """
    import itertools as _it

    from repro.harness.runner import baseline_for

    database = _tpch(_scaled(scale_rows))
    layer = make_backend(database, backend)
    specs = q2_flex_specs(4, BASE_SELECTIVITY)
    chosen = [specs[0], specs[3], specs[2]]  # retailprice, p_size, supplycost
    workload = build_ratio_workload(
        database,
        Q2_TABLES,
        chosen,
        ratio,
        aggregate="COUNT",
        joins=Q2_JOINS,
        name="binsearch_order",
    )
    rows: list[Row] = []
    for order in _it.permutations(range(3)):
        technique = baseline_for("BinSearch", delta=delta, order=order)
        run = technique.run(layer, workload.query)
        rows.append(Row.from_run("order", "".join(map(str, order)), run))
    return ExperimentResult(
        name="binsearch_order",
        title="Sec 8.4.1: BinSearch error vs predicate refinement order",
        paper_expectation=(
            "BinSearch error varies wildly across predicate orderings "
            "(paper: 0.002 vs 0.19 — a 100X swing — between two orders)."
        ),
        rows=rows,
        settings={"scale_rows": _scaled(scale_rows), "ratio": ratio},
    )


# ----------------------------------------------------------------------
# Service: concurrent multi-query driver under generated load
# ----------------------------------------------------------------------
def service_load(
    scale_rows: int = 4_000,
    requests_per_worker: int = 4,
    workers: Sequence[int] = (1, 2, 4),
    backend: str = "sqlite",
    ratio: float = 0.25,
    gamma: float = 10.0,
    step: float = 2.0,
    selectivity: float = BASE_SELECTIVITY,
    corpus_requests: int = 8,
    corpus_seed: int = 7,
    open_loop_rps: float = 40.0,
) -> ExperimentResult:
    """Load-generate against :class:`repro.service.AcquireService`.

    Three arms, mirroring how a multi-tenant driver is actually judged:

    * ``service/closed/<backend>`` — closed-loop throughput sweep over
      worker counts: N clients per worker hammer one shared backend
      with same-shape ACQs, shared caching *disabled* so every request
      pays its full backend pass. Throughput should
      scale with workers on backends whose execution releases the GIL
      (sqlite); ``extra`` carries p50/p99 latency and requests/s.
    * ``service/open/corpus`` — open-loop arrival over corpus-sampled
      triples on one cache-sharing service: duplicates with jittered
      targets dedupe against the original's tensors (the cache key is
      target-independent), so the shared-cache hit counters prove
      cross-request dedupe. Arrivals do not wait for completions, so
      this arm also exercises the backpressure policy.
    * ``service/serial/corpus`` — the same corpus mix replayed one
      request at a time on a fresh service: the deterministic
      backend-query/row counts the regression baseline pins (the
      concurrent arms' counters depend on request interleaving — two
      simultaneous identical requests may both miss the cache).
    """
    import time as _time

    from repro.service import (
        AcquireService,
        ServiceConfig,
        run_closed_loop,
        run_open_loop,
        sample_corpus_requests,
    )

    rows: list[Row] = []

    # -- Arm A: closed-loop throughput vs worker count ----------------
    database = _tpch(_scaled(scale_rows))
    layer = make_backend(database, backend)
    workload = build_ratio_workload(
        database,
        Q2_TABLES,
        q2_flex_specs(2, selectivity),
        ratio,
        aggregate="COUNT",
        joins=Q2_JOINS,
        name="service_load",
    )
    config = AcquireConfig(
        gamma=gamma, step=step, explore_mode="materialized"
    )
    preflight_query(layer, workload.query, config)
    # Warm the backend (page cache, prepared-statement paths) so the
    # first timed arm is not charged for one-time setup.
    from repro.core.acquire import Acquire as _Acquire

    _Acquire(layer).run(workload.query, config)
    for count in workers:
        total = max(int(requests_per_worker), 1) * int(count)
        requests = [
            ("default", workload.query, config) for _ in range(total)
        ]
        report = None
        for _ in range(2):  # best-of-2: scheduling noise, not trend
            service = AcquireService(
                ServiceConfig(
                    workers=int(count),
                    max_queue=total,
                    cache_bytes=0,  # no sharing: every request pays
                )
            )
            try:
                service.register_backend("default", layer)
                candidate = run_closed_loop(service, requests, int(count))
            finally:
                service.close()
            if report is None or candidate.wall_s < report.wall_s:
                report = candidate
        stats = report.service
        rows.append(
            Row(
                x_name="workers",
                x_value=int(count),
                method=f"service/closed/{backend}",
                time_ms=report.wall_s * 1000.0,
                error=0.0,
                qscore=0.0,
                aggregate_value=0.0,
                queries=sum(r.queries_executed for r in report.records),
                rows_scanned=sum(r.rows_scanned for r in report.records),
                satisfied=all(
                    r.satisfied for r in report.records if r.completed
                ),
                cache_hits=report.cache_hits,
                cache_misses=report.cache_misses,
                explore_mode="materialized",
                extra={
                    "throughput_rps": report.throughput_rps,
                    "p50_ms": report.latency_ms(0.50),
                    "p99_ms": report.latency_ms(0.99),
                    "completed": report.completed,
                    "rejected": report.rejected,
                    "peak_in_flight": (
                        stats.peak_in_flight if stats else 0
                    ),
                },
            )
        )

    # -- Arm B: open-loop corpus mix on one cache-sharing service -----
    service = AcquireService(
        ServiceConfig(workers=4, max_queue=2 * corpus_requests + 8)
    )
    try:
        requests = sample_corpus_requests(
            service, corpus_requests, seed=corpus_seed
        )
        report = run_open_loop(
            service, requests, inter_arrival_s=1.0 / max(open_loop_rps, 1e-9)
        )
        cache = service.grid_cache
        shared_hits = cache.hits + cache.persistent_hits if cache else 0
        shared_misses = cache.misses if cache else 0
        stats = report.service
        rows.append(
            Row(
                x_name="arrival",
                x_value="open",
                method="service/open/corpus",
                time_ms=report.wall_s * 1000.0,
                error=0.0,
                qscore=0.0,
                aggregate_value=0.0,
                queries=sum(r.queries_executed for r in report.records),
                rows_scanned=sum(r.rows_scanned for r in report.records),
                satisfied=True,
                cache_hits=shared_hits,
                cache_misses=shared_misses,
                extra={
                    "throughput_rps": report.throughput_rps,
                    "p50_ms": report.latency_ms(0.50),
                    "p99_ms": report.latency_ms(0.99),
                    "requests": len(requests),
                    "completed": report.completed,
                    "rejected": report.rejected,
                    "dedupe_hit_rate": (
                        shared_hits / (shared_hits + shared_misses)
                        if shared_hits + shared_misses
                        else 0.0
                    ),
                    "peak_in_flight": (
                        stats.peak_in_flight if stats else 0
                    ),
                },
            )
        )
    finally:
        service.close()

    # -- Arm C: serial replay of the same mix (deterministic counters)
    service = AcquireService(
        ServiceConfig(workers=1, max_queue=2 * corpus_requests + 8)
    )
    try:
        requests = sample_corpus_requests(
            service, corpus_requests, seed=corpus_seed
        )
        started = _time.perf_counter()
        report = run_closed_loop(service, requests, concurrency=1)
        wall = _time.perf_counter() - started
        cache = service.grid_cache
        shared_hits = cache.hits + cache.persistent_hits if cache else 0
        rows.append(
            Row(
                x_name="arrival",
                x_value="serial",
                method="service/serial/corpus",
                time_ms=wall * 1000.0,
                error=0.0,
                qscore=0.0,
                aggregate_value=0.0,
                queries=sum(r.queries_executed for r in report.records),
                rows_scanned=sum(r.rows_scanned for r in report.records),
                satisfied=True,
                cache_hits=shared_hits,
                cache_misses=cache.misses if cache else 0,
                extra={
                    "requests": len(requests),
                    "completed": report.completed,
                    "satisfied_count": sum(
                        1 for r in report.records if r.satisfied
                    ),
                },
            )
        )
    finally:
        service.close()

    return ExperimentResult(
        name="service_load",
        title="ACQ-as-a-service: latency/throughput under generated load",
        paper_expectation=(
            "The paper's interactive framing implies a multi-query "
            "deployment: throughput scales with service workers on a "
            "GIL-escaping backend, overlapping sweeps dedupe grid "
            "work through the shared target-independent grid cache "
            "(cross-request cache hits > 0)."
        ),
        rows=rows,
        settings={
            "scale_rows": _scaled(scale_rows),
            "workers": list(workers),
            "requests_per_worker": requests_per_worker,
            "backend": backend,
            "corpus_requests": corpus_requests,
            "corpus_seed": corpus_seed,
            "open_loop_rps": open_loop_rps,
        },
    )


EXPERIMENTS = {
    "fig8": fig8_aggregate_ratio,
    "fig9": fig9_dimensionality,
    "fig10a": fig10a_table_size,
    "fig10b": fig10b_refinement_threshold,
    "fig10c": fig10c_cardinality_threshold,
    "fig11": fig11_aggregate_types,
    "skew": skew_distribution,
    "table1": table1_capabilities,
    "binsearch_order": binsearch_order_sensitivity,
    "layers": evaluation_layers,
    "explore": explore_modes,
    "grid_cache": grid_cache_sweep,
    "persistent_cache": persistent_cache,
    "shapes": shape_robustness,
    "service_load": service_load,
}
