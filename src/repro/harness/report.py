"""Plain-text rendering of experiment results."""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence

from repro.harness.metrics import ExperimentResult, Row

_COLUMNS = (
    ("x", lambda row: _fmt_x(row)),
    ("method", lambda row: row.method),
    ("time_ms", lambda row: f"{row.time_ms:.1f}"),
    ("error", lambda row: _fmt_float(row.error, 4)),
    ("qscore", lambda row: _fmt_float(row.qscore, 2)),
    ("A_actual", lambda row: _fmt_float(row.aggregate_value, 1)),
    ("queries", lambda row: str(row.queries)),
    ("grids", lambda row: str(row.materializations)),
    ("cache", lambda row: _fmt_cache(row)),
    ("probes", lambda row: _fmt_probes(row)),
    ("explore", lambda row: row.explore_mode or "-"),
    ("topk", lambda row: _fmt_topk(row)),
    ("ok", lambda row: "y" if row.satisfied else "n"),
)


def _fmt_topk(row: Row) -> str:
    """k plus how many ranked alternatives the search certified."""
    if row.top_k <= 1:
        return "-"
    ranked = row.extra.get("top_qscores")
    found = len(ranked) if isinstance(ranked, list) else 0
    return f"{found}/{row.top_k}"


def _fmt_probes(row: Row) -> str:
    """Repartition probes / the cells they bisected."""
    if row.repartition_probes == 0:
        return "-"
    return f"{row.repartition_probes}/{row.repartitioned_cells}"


def _fmt_cache(row: Row) -> str:
    if row.cache_hits == 0 and row.cache_misses == 0:
        return "-"
    return f"{row.cache_hits}h/{row.cache_misses}m"


def _fmt_x(row: Row) -> str:
    value = row.x_value
    if isinstance(value, float):
        return f"{row.x_name}={value:g}"
    return f"{row.x_name}={value}"


def _fmt_float(value: float, digits: int) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.{digits}f}"


def render_rows(rows: Sequence[Row]) -> str:
    """Aligned text table over the standard metric columns."""
    header = [name for name, _ in _COLUMNS]
    body = [[render(row) for _, render in _COLUMNS] for row in rows]
    widths = [
        max(len(header[index]), *(len(line[index]) for line in body))
        if body
        else len(header[index])
        for index in range(len(header))
    ]
    lines = [
        "  ".join(name.ljust(width) for name, width in zip(header, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for line in body:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        )
    return "\n".join(lines)


def render_chart(
    result: ExperimentResult,
    metric: str = "time_ms",
    width: int = 40,
    log_scale: bool = True,
) -> str:
    """ASCII bar chart of one metric, grouped by sweep value.

    Bars are scaled to the experiment-wide maximum; with
    ``log_scale`` the bar length is proportional to ``log10(value)``
    (matching the paper's log-scale time axes).
    """
    values = [
        getattr(row, metric)
        for row in result.rows
        if math.isfinite(getattr(row, metric)) and getattr(row, metric) > 0
    ]
    if not values:
        return ""
    top = max(values)
    floor = min(values)

    def bar_length(value: float) -> int:
        if not (math.isfinite(value) and value > 0):
            return 0
        if log_scale and top > floor > 0:
            span = math.log10(top) - math.log10(floor) or 1.0
            fraction = (math.log10(value) - math.log10(floor)) / span
        else:
            fraction = value / top
        return max(int(round(fraction * (width - 1))) + 1, 1)

    method_width = max(len(row.method) for row in result.rows)
    lines = [f"{metric}" + (" (log scale)" if log_scale else "")]
    previous_x = object()
    for row in result.rows:
        label = _fmt_x(row) if row.x_value != previous_x else ""
        previous_x = row.x_value
        value = getattr(row, metric)
        bar = "#" * bar_length(value)
        lines.append(
            f"{label:<16} {row.method:<{method_width}}  "
            f"{bar} {_fmt_float(value, 1)}"
        )
    return "\n".join(lines)


def render_result(result: ExperimentResult) -> str:
    """Full report: title, settings, table, chart, headline ratios."""
    lines = [
        f"== {result.title} ==",
        f"paper: {result.paper_expectation}",
        f"settings: {result.settings}",
        "",
        render_rows(result.rows),
    ]
    chart = render_chart(result)
    if chart and len(result.rows) > 1:
        lines.extend(["", chart])
    summary = summarize(result)
    if summary:
        lines.extend(["", summary])
    return "\n".join(lines)


def summarize(result: ExperimentResult) -> str:
    """Headline geometric-mean ratios against ACQUIRE, when present."""
    methods = result.methods()
    if "ACQUIRE" not in methods:
        return ""
    parts = []
    for method in methods:
        if method == "ACQUIRE":
            continue
        time_ratio = result.speedup("time_ms", method)
        qscore_ratio = result.speedup("qscore", method)
        fragment = f"{method}: "
        bits = []
        if time_ratio is not None:
            bits.append(f"{time_ratio:.1f}x ACQUIRE time")
        if qscore_ratio is not None:
            bits.append(f"{qscore_ratio:.1f}x ACQUIRE refinement")
        if bits:
            parts.append(fragment + ", ".join(bits))
    return ("vs ACQUIRE (geo-mean): " + "; ".join(parts)) if parts else ""


def save_result(
    result: ExperimentResult, directory: Optional[str] = None
) -> str:
    """Write the rendered report (and a raw CSV) under
    ``benchmarks/results/``; returns the text report's path."""
    directory = directory or os.path.join("benchmarks", "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_result(result) + "\n")
    save_csv(result, os.path.join(directory, f"{result.name}.csv"))
    return path


def save_csv(result: ExperimentResult, path: str) -> str:
    """Raw per-row series as CSV, for downstream plotting tools."""
    import csv

    fields = (
        "x_name", "x_value", "method", "time_ms", "error", "qscore",
        "aggregate_value", "queries", "rows_scanned", "materializations",
        "cache_hits", "cache_misses", "cache_bytes",
        "explore_mode", "top_k", "repartition_probes",
        "repartitioned_cells", "satisfied",
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for row in result.rows:
            writer.writerow([getattr(row, field) for field in fields])
    return path


def save_json(result: ExperimentResult, path: str) -> str:
    """Machine-readable result dump (rows + settings) for CI and
    downstream tooling; see ``benchmarks/smoke.py``."""
    import json
    from dataclasses import asdict

    payload = {
        "name": result.name,
        "title": result.title,
        "paper_expectation": result.paper_expectation,
        "settings": {
            key: repr(value) if not _jsonable(value) else value
            for key, value in result.settings.items()
        },
        "rows": [asdict(row) for row in result.rows],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=repr)
        handle.write("\n")
    return path


def _jsonable(value: object) -> bool:
    return isinstance(value, (str, int, float, bool, type(None)))
