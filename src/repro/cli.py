"""Command-line interface: run or lint an ACQ against CSV data.

Run an ACQ::

    python -m repro --csv users=users.csv \\
        "SELECT * FROM users CONSTRAINT COUNT(*) = 1000 \\
         WHERE age <= 30 AND income <= 50000"

Loads each CSV into the in-memory engine (column types inferred), binds
and runs the ACQ, prints the recommended refined queries, and — with
``--show-rows N`` — the first N result tuples of the best alternative.
Pass ``--analyze`` to statically pre-check the query (see below) before
executing; ERROR diagnostics abort the run with exit code 2.

Lint an ACQ without running it::

    python -m repro lint --csv users=users.csv query.sql

``lint`` accepts a path to a ``.sql`` file, ``-`` for stdin, or inline
SQL text, runs the :mod:`repro.analysis` static analyzer against the
loaded catalog, prints the diagnostics (``--json`` for machine-readable
output) and exits 1 when ERROR-level diagnostics exist (``--strict``
also fails on warnings).

Load-generate against the concurrent service driver::

    python -m repro serve-bench --requests 8 --workers 4 --rps 40

``serve-bench`` stands up an :class:`repro.service.AcquireService`
over corpus-sampled ACQs and replays an open-loop arrival schedule
through it, printing completion counts, p50/p99 latency, throughput,
and the shared-cache dedupe hit rate (see docs/SERVICE.md).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Iterable, Optional

import numpy as np

from repro.analysis import analyze_sql
from repro.core.acquire import Acquire, AcquireConfig
from repro.core.grid_cache import GridTensorCache
from repro.core.scoring import LInfNorm, LpNorm
from repro.engine.catalog import Database
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.exceptions import DataGenError, ReproError
from repro.sqlext import format_refined_query, parse_acq


def load_csv(database: Database, name: str, path: str) -> None:
    """Load one CSV file as a table, inferring column types.

    A column is INT if every value parses as an integer, FLOAT if every
    value parses as a number, STR otherwise. Empty cells are not
    supported (the engine has no NULLs, matching the paper's model).
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataGenError(f"cannot read CSV {path!r}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataGenError(f"{path}: empty CSV") from None
        rows = list(reader)
    if not header:
        raise DataGenError(f"{path}: no columns")
    columns: dict[str, np.ndarray] = {}
    for index, column in enumerate(header):
        raw = [row[index] for row in rows]
        columns[column.strip()] = _infer_column(raw, column, path)
    database.create_table(name, columns)


def _infer_column(raw: Iterable[str], column: str, path: str) -> np.ndarray:
    values = list(raw)
    if any(value.strip() == "" for value in values):
        raise DataGenError(
            f"{path}: column {column!r} has empty cells (NULLs are not "
            "supported)"
        )
    try:
        return np.array([int(value) for value in values], dtype=np.int64)
    except ValueError:
        pass
    try:
        return np.array([float(value) for value in values])
    except ValueError:
        return np.array([value.strip() for value in values], dtype=object)


def _parse_csv_spec(spec: str) -> tuple[str, str]:
    name, separator, path = spec.partition("=")
    if not separator or not name or not path:
        raise ReproError(
            f"--csv expects NAME=PATH, got {spec!r}"
        )
    return name, path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Process an Aggregation Constrained Query over CSVs.",
    )
    parser.add_argument(
        "sql",
        help="ACQ text (the paper's dialect: CONSTRAINT / NOREFINE)",
    )
    parser.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="load a CSV file as table NAME (repeatable)",
    )
    parser.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default="memory",
    )
    parser.add_argument("--gamma", type=float, default=10.0,
                        help="refinement threshold (default 10)")
    parser.add_argument("--delta", type=float, default=0.05,
                        help="aggregate error threshold (default 0.05)")
    parser.add_argument(
        "--norm",
        default="l1",
        help="QScore norm: l1, l2, ... lp (any p>=1), or linf",
    )
    parser.add_argument(
        "--explore-mode",
        choices=("auto", "incremental", "materialized"),
        default="auto",
        help="Explore engine: per-cell round trips (incremental), one "
        "whole-grid pass (materialized), or one grid pass per QScore "
        "shell of the cells the search reaches (auto, the default; the "
        "whole grid with a grid cache); see docs/EXPLORE_MODES.md",
    )
    parser.add_argument(
        "--grid-cache-mb",
        type=int,
        default=0,
        metavar="MB",
        help="enable the cross-query grid tensor cache with this byte "
        "budget (0 disables); only whole-grid reads (materialized, or "
        "auto with a cache) consult it",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=1,
        metavar="K",
        help="keep exploring until the K best answer layers are "
        "complete, so the printed alternatives are a certified "
        "score-ranked list (default 1: the paper's stopping rule)",
    )
    parser.add_argument("--alternatives", type=int, default=3,
                        help="how many refined queries to print")
    parser.add_argument("--show-rows", type=int, default=0,
                        metavar="N",
                        help="print the first N tuples of the best answer")
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="statically analyze the ACQ first; ERROR diagnostics abort "
        "the run (exit 2)",
    )
    return parser


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Statically analyze an ACQ without executing it.",
    )
    parser.add_argument(
        "source",
        help="path to a .sql file, '-' for stdin, or inline ACQ text",
    )
    parser.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="load a CSV file as table NAME (repeatable)",
    )
    parser.add_argument("--gamma", type=float, default=10.0,
                        help="refinement threshold used for cost estimates")
    parser.add_argument("--delta", type=float, default=0.05,
                        help="aggregate error threshold (default 0.05)")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit diagnostics as JSON instead of text",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat WARNING diagnostics as failures too",
    )
    return parser


def build_serve_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve-bench",
        description="Load-generate corpus ACQs against AcquireService.",
    )
    parser.add_argument("--requests", type=int, default=8, metavar="N",
                        help="distinct corpus triples to sample (plus "
                        "jittered duplicates; default 8)")
    parser.add_argument("--workers", type=int, default=4, metavar="N",
                        help="service worker threads (default 4)")
    parser.add_argument("--max-queue", type=int, default=16, metavar="N",
                        help="admitted-but-waiting slots beyond the "
                        "workers (default 16)")
    parser.add_argument("--rps", type=float, default=40.0,
                        help="open-loop arrival rate in requests/s "
                        "(default 40)")
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus sampling seed (default 7)")
    parser.add_argument(
        "--admission",
        choices=("reject", "wait"),
        default="reject",
        help="backpressure policy when all slots are taken (default "
        "reject; see docs/SERVICE.md)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    return parser


def serve_bench_main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro serve-bench`` — open-loop corpus load demo."""
    from repro.service import (
        AcquireService,
        ServiceConfig,
        run_open_loop,
        sample_corpus_requests,
    )

    args = build_serve_bench_parser().parse_args(argv)
    service = AcquireService(
        ServiceConfig(
            workers=args.workers,
            max_queue=args.max_queue,
            admission=args.admission,
        )
    )
    try:
        requests = sample_corpus_requests(
            service, args.requests, seed=args.seed
        )
        report = run_open_loop(
            service, requests, inter_arrival_s=1.0 / max(args.rps, 1e-9)
        )
        cache = service.grid_cache
        hits = cache.hits if cache else 0
        misses = cache.misses if cache else 0
        stats = service.stats()
    finally:
        service.close()
    summary = {
        "requests": len(requests),
        "completed": report.completed,
        "rejected": report.rejected,
        "wall_s": round(report.wall_s, 4),
        "throughput_rps": round(report.throughput_rps, 2),
        "p50_ms": round(report.latency_ms(0.50), 3),
        "p99_ms": round(report.latency_ms(0.99), 3),
        "shared_cache_hits": hits,
        "shared_cache_misses": misses,
        "dedupe_hit_rate": round(
            hits / (hits + misses) if hits + misses else 0.0, 4
        ),
        "peak_in_flight": stats.peak_in_flight,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"{summary['completed']}/{summary['requests']} requests "
            f"completed ({summary['rejected']} rejected) in "
            f"{summary['wall_s']}s — {summary['throughput_rps']} req/s"
        )
        print(
            f"latency p50 {summary['p50_ms']}ms, p99 {summary['p99_ms']}ms; "
            f"peak in-flight {summary['peak_in_flight']}"
        )
        print(
            f"shared cache: {hits} hits / {misses} misses "
            f"(dedupe hit rate {summary['dedupe_hit_rate']})"
        )
    return 0 if report.completed == len(requests) else 1


def _norm_from_name(name: str):
    lowered = name.lower()
    if lowered == "linf":
        return LInfNorm()
    if lowered.startswith("l"):
        try:
            return LpNorm(float(lowered[1:]))
        except ValueError:
            pass
    raise ReproError(f"unknown norm {name!r} (use l1, l2, lp, or linf)")


def _load_tables(database: Database, specs: Iterable[str]) -> bool:
    """Load every --csv spec; False when no tables ended up loaded."""
    for spec in specs:
        name, path = _parse_csv_spec(spec)
        load_csv(database, name, path)
    if not database.table_names:
        print("error: no tables loaded; pass --csv NAME=PATH",
              file=sys.stderr)
        return False
    return True


def _read_lint_source(argument: str) -> str:
    """The lint operand: a file path, '-' (stdin), or inline SQL."""
    if argument == "-":
        return sys.stdin.read()
    if os.path.exists(argument):
        with open(argument, encoding="utf-8") as handle:
            return handle.read()
    return argument


def lint_main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro lint`` — analyze an ACQ without running it.

    ``--engine`` switches to the self-lint: the engine-invariant
    static analysis over the repro source tree itself
    (:mod:`repro.analysis.engine_lint`).
    """
    if argv is not None and "--engine" in argv:
        from repro.analysis.engine_lint import engine_lint_main

        rest = [arg for arg in argv if arg != "--engine"]
        return engine_lint_main(rest)
    args = build_lint_parser().parse_args(argv)
    database = Database("lint")
    if not _load_tables(database, args.csv):
        return 2
    sql = _read_lint_source(args.source)
    config = AcquireConfig(gamma=args.gamma, delta=args.delta)
    report = analyze_sql(sql, database, config=config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    failed = report.has_errors or (args.strict and report.warnings)
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "serve-bench":
        return serve_bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    database = Database("cli")
    if not _load_tables(database, args.csv):
        return 2

    if args.analyze:
        report = analyze_sql(args.sql, database)
        print(report.render())
        if report.has_errors:
            print("error: pre-flight analysis failed; not executing",
                  file=sys.stderr)
            return 2
        print()

    query = parse_acq(args.sql, database)
    layer = (
        MemoryBackend(database)
        if args.backend == "memory"
        else SQLiteBackend(database)
    )
    cache = (
        GridTensorCache(args.grid_cache_mb * 1024 * 1024)
        if args.grid_cache_mb > 0
        else None
    )
    config = AcquireConfig(
        gamma=args.gamma,
        delta=args.delta,
        norm=_norm_from_name(args.norm),
        explore_mode=args.explore_mode,
        grid_cache=cache,
        top_k=args.top_k,
    )
    acquire = Acquire(layer)
    result = acquire.run(query, config)

    print(result.summary())
    shown = result.answers[: max(args.alternatives, args.top_k)] or (
        [result.closest] if result.closest else []
    )
    for index, answer in enumerate(shown, start=1):
        print(f"\n-- alternative {index}: A={answer.aggregate_value:g}, "
              f"QScore={answer.qscore:.2f}, err={answer.error:.4f}")
        print(format_refined_query(answer))

    if args.show_rows > 0 and result.best is not None:
        prepared = layer.prepare(
            query, [config.dim_cap_default] * query.dimensionality
        )
        rows = layer.fetch_rows(
            prepared, result.best.pscores, limit=args.show_rows
        )
        print(f"\n-- first {len(rows)} result tuples of the best answer --")
        for row in rows:
            print("  " + ", ".join(f"{k}={v}" for k, v in row.items()))
    return 0 if result.satisfied else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
