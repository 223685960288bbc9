"""CI smoke run for the benchmark plumbing.

Two tiny sweeps, each emitting the machine-readable JSON the full
benchmark suite also produces — so the JSON schema, the work counters,
and the harness report path cannot rot without CI noticing. Unlike
``bench_evaluation_layers.py`` this needs nothing beyond the runtime
dependencies (no pytest-benchmark).

1. ``evaluation_layers`` per backend — memory, sqlite, sampling,
   histogram — writes ``BENCH_layers.json`` and checks that every
   layer issued queries plus memory/sqlite answer agreement.
2. ``explore_modes`` — serial vs materialized vs auto on the exact
   backends — writes ``BENCH_explore.json`` and checks that
   every mode returns the same answer, that materialization cuts
   round trips at least ``MIN_SPEEDUP``-fold versus serial, that auto
   reads QScore shells with at most serial's round trips plus one, no
   cell query and at most ``1 + ceil(log_growth(last QScore / first
   bound))`` grid passes, and that the materialized round-trip counts
   have not regressed above the checked-in
   ``BENCH_explore_baseline.json``.
3. ``grid_cache_sweep`` — a constraint sweep run twice, without and
   with a shared grid tensor cache — writes ``BENCH_cache.json`` and
   checks that both arms agree on every answer, that the cached arm
   records hits, that it issues *strictly fewer* backend queries than
   the uncached arm, and that its query total has not regressed above
   the checked-in ``BENCH_cache_baseline.json``.
4. ``service_load`` (the ``bench-service`` job; ``--service-only``
   runs just this) — writes ``BENCH_service.json`` and checks that the
   closed-loop arm completed every request with none rejected, that —
   on hosts with at least ``SCALING_GATE_CORES`` cores — throughput
   at 4 service workers is at least ``MIN_SERVICE_SPEEDUP``x the
   1-worker arm on the sqlite backend, that the corpus arms report
   cross-request shared-cache hits (the dedupe gate), and that the
   serial corpus replay's deterministic backend-query total has not
   regressed above the checked-in ``BENCH_service_baseline.json``.

Usage::

    PYTHONPATH=src python benchmarks/smoke.py [--scale-rows N] [--out PATH]
        [--explore-out PATH] [--cache-out PATH] [--service-out PATH]
        [--baseline PATH] [--cache-baseline PATH]
        [--service-baseline PATH] [--update-baseline] [--service-only]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

BACKENDS = ("memory", "sqlite", "sampling", "histogram")
EXPLORE_BACKENDS = ("memory", "sqlite")
EXPLORE_MODES = ("serial", "materialized", "auto")

#: Required round-trip reduction of materialized vs serial Explore.
MIN_SPEEDUP = 5

#: The service worker-scaling gate only binds on hosts with at least
#: this many cores: below that, worker threads time-slice one core and
#: a throughput comparison measures the scheduler, not the engine.
SCALING_GATE_CORES = 4

#: Required closed-loop throughput ratio of the 4-worker service over
#: the 1-worker service on the sqlite backend, enforced only on hosts
#: with >= SCALING_GATE_CORES cores. SQLite's C execution drops the
#: GIL, so service worker threads overlap real backend work; on a
#: single core the same threads merely time-slice and the ratio
#: measures the scheduler.
MIN_SERVICE_SPEEDUP = 2.0


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _check_layers(payload: dict) -> list[str]:
    rows = {row["method"]: row for row in payload["rows"]}
    failures = []
    missing = set(BACKENDS) - set(rows)
    if missing:
        failures.append(f"backends missing from JSON: {sorted(missing)}")
    for method in BACKENDS:
        row = rows.get(method)
        if row is None:
            continue
        if row["queries"] < 1:
            failures.append(f"{method}: no queries recorded")
    if "memory" in rows and "sqlite" in rows:
        if rows["memory"]["qscore"] != rows["sqlite"]["qscore"]:
            failures.append(
                "exact layers disagree: memory qscore "
                f"{rows['memory']['qscore']} != sqlite "
                f"{rows['sqlite']['qscore']}"
            )
    return failures


def _check_explore(payload: dict) -> list[str]:
    rows = {row["method"]: row for row in payload["rows"]}
    failures = []
    for backend in EXPLORE_BACKENDS:
        per_mode = {
            mode: rows.get(f"{backend}/{mode}") for mode in EXPLORE_MODES
        }
        missing = [mode for mode, row in per_mode.items() if row is None]
        if missing:
            failures.append(f"{backend}: modes missing from JSON: {missing}")
            continue
        qscores = {mode: row["qscore"] for mode, row in per_mode.items()}
        if len(set(qscores.values())) != 1:
            failures.append(f"{backend}: modes disagree on answer: {qscores}")
        if per_mode["materialized"]["materializations"] < 1:
            failures.append(f"{backend}: materialized run built no grid")
        if per_mode["materialized"]["explore_mode"] != "materialized":
            failures.append(
                f"{backend}: materialized run reported explore_mode="
                f"{per_mode['materialized']['explore_mode']!r}"
            )
        serial = per_mode["serial"]["queries"]
        materialized = per_mode["materialized"]["queries"]
        if materialized * MIN_SPEEDUP > serial:
            failures.append(
                f"{backend}: materialized explore saved too little — "
                f"{materialized} round trips vs {serial} serial "
                f"(need {MIN_SPEEDUP}x)"
            )
        failures.extend(
            _check_shells(
                backend, per_mode["auto"], serial, payload["settings"]["step"]
            )
        )
    return failures


def _check_shells(
    backend: str, auto: dict, serial: int, first: float
) -> list[str]:
    """The shell reads' contract: auto answers in QScore shells with
    at most serial's round trips plus one and no cell query, and makes
    at most one grid pass per growth factor between the first bound
    (one grid step ``first`` under the workload's unit weights) and the
    last QScore it examined."""
    from repro.core.grid_explore import BALL_GROWTH

    failures = []
    if auto["explore_mode"] != "shells":
        failures.append(
            f"{backend}: auto ran {auto['explore_mode']!r}; shell reads "
            "expected"
        )
    if auto["queries"] > serial + 1:
        failures.append(
            f"{backend}: auto did {auto['queries']} round trips; serial "
            f"needs {serial}, so the bound is {serial + 1}"
        )
    cells = auto["extra"]["cell_queries"]
    if cells:
        failures.append(f"{backend}: auto issued {cells} cell queries")
    reach = max(auto["extra"]["last_qscore"] / first, 1.0)
    bound = 1 + math.ceil(math.log(reach, BALL_GROWTH))
    passes = auto["materializations"]
    if not 1 <= passes <= bound:
        failures.append(
            f"{backend}: auto made {passes} shell passes; 1 to {bound} "
            f"reach QScore {auto['extra']['last_qscore']:g}"
        )
    return failures


def _check_explore_baseline(
    payload: dict, baseline_path: str
) -> list[str]:
    """Perf-regression guard on materialized round-trip counts.

    The baseline is checked in; regenerate it deliberately with
    ``--update-baseline`` when the workload or the engine changes.
    Skipped (with a notice) when the run's scale differs from the
    baseline's, since counts are only comparable at equal scale.
    """
    if not os.path.exists(baseline_path):
        return [f"explore baseline missing: {baseline_path}"]
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("scale_rows") != payload["settings"].get("scale_rows"):
        print(
            "note: baseline scale_rows "
            f"{baseline.get('scale_rows')} != run scale_rows "
            f"{payload['settings'].get('scale_rows')}; skipping the "
            "regression guard"
        )
        return []
    rows = {row["method"]: row for row in payload["rows"]}
    failures = []
    for backend, allowed in baseline["materialized_queries"].items():
        row = rows.get(f"{backend}/materialized")
        if row is None:
            continue
        if row["queries"] > allowed:
            failures.append(
                f"{backend}: materialized round trips regressed — "
                f"{row['queries']} > baseline {allowed}"
            )
    return failures


def _check_cache(payload: dict) -> list[str]:
    """Gate: the cached arm must beat the uncached arm outright."""
    failures = []
    arms: dict[str, list[dict]] = {"uncached": [], "cached": []}
    for row in payload["rows"]:
        arm = row["method"].rsplit("/", 1)[-1]
        if arm in arms:
            arms[arm].append(row)
    if not arms["uncached"] or not arms["cached"]:
        return [f"cache sweep arms missing: { {k: len(v) for k, v in arms.items()} }"]
    if len(arms["uncached"]) != len(arms["cached"]):
        return [
            "cache sweep arms unequal: "
            f"{len(arms['uncached'])} uncached vs {len(arms['cached'])} cached"
        ]
    for plain, cached in zip(arms["uncached"], arms["cached"]):
        if plain["x_value"] != cached["x_value"]:
            failures.append(
                f"cache sweep misaligned at {plain['x_value']} vs "
                f"{cached['x_value']}"
            )
            continue
        if plain["qscore"] != cached["qscore"]:
            failures.append(
                f"ratio {plain['x_value']}: cached answer diverged — "
                f"qscore {cached['qscore']} != {plain['qscore']}"
            )
        if plain["aggregate_value"] != cached["aggregate_value"]:
            failures.append(
                f"ratio {plain['x_value']}: cached aggregate diverged — "
                f"{cached['aggregate_value']} != {plain['aggregate_value']}"
            )
    hits = sum(row["cache_hits"] for row in arms["cached"])
    if hits < 1:
        failures.append("cached arm recorded no cache hits")
    plain_queries = sum(row["queries"] for row in arms["uncached"])
    cached_queries = sum(row["queries"] for row in arms["cached"])
    if cached_queries >= plain_queries:
        failures.append(
            "cache saved nothing: cached arm issued "
            f"{cached_queries} backend queries vs {plain_queries} uncached "
            "(must be strictly fewer)"
        )
    return failures


def _check_cache_baseline(payload: dict, baseline_path: str) -> list[str]:
    """Perf-regression guard on the cached arm's backend queries."""
    if not os.path.exists(baseline_path):
        return [f"cache baseline missing: {baseline_path}"]
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("scale_rows") != payload["settings"].get("scale_rows"):
        print(
            "note: cache baseline scale_rows "
            f"{baseline.get('scale_rows')} != run scale_rows "
            f"{payload['settings'].get('scale_rows')}; skipping the "
            "regression guard"
        )
        return []
    cached_queries = sum(
        row["queries"]
        for row in payload["rows"]
        if row["method"].endswith("/cached")
    )
    allowed = baseline.get("cached_queries", 0)
    if cached_queries > allowed:
        return [
            "cached-arm backend queries regressed — "
            f"{cached_queries} > baseline {allowed}"
        ]
    return []


def _check_service(payload: dict) -> list[str]:
    """Gates for the ACQ-as-a-service load-generation arms.

    The closed-loop sweep must complete every request with none
    rejected and report latency percentiles (exact gates); on hosts
    with at least ``SCALING_GATE_CORES`` cores the 4-worker arm must
    sustain ``MIN_SERVICE_SPEEDUP``x the 1-worker throughput on the
    sqlite backend (the worker-scaling gate). The corpus arms must
    report cross-request shared-cache hits — the serial replay
    deterministically (its duplicates re-read tensors their originals
    cached), the open-loop arm as the live demonstration of dedupe
    under concurrent arrival.
    """
    failures = []
    closed: dict[int, dict] = {}
    corpus: dict[str, dict] = {}
    for row in payload["rows"]:
        if row["method"].startswith("service/closed/"):
            closed[int(row["x_value"])] = row
        elif row["method"] == "service/open/corpus":
            corpus["open"] = row
        elif row["method"] == "service/serial/corpus":
            corpus["serial"] = row
    if not closed:
        failures.append("closed-loop service rows missing from JSON")
    for workers, row in sorted(closed.items()):
        label = f"{row['method']}/w{workers}"
        extra = row["extra"]
        if extra.get("rejected", 0):
            failures.append(
                f"{label}: {extra['rejected']} requests rejected — the "
                "sweep sizes its queue to admit every request"
            )
        if extra.get("completed", 0) < 1:
            failures.append(f"{label}: no requests completed")
        if not row.get("satisfied", False):
            failures.append(f"{label}: a completed request went unsatisfied")
        if extra.get("p50_ms", 0.0) <= 0.0:
            failures.append(f"{label}: no latency percentiles recorded")
        if extra.get("p99_ms", 0.0) < extra.get("p50_ms", 0.0):
            failures.append(
                f"{label}: p99 {extra.get('p99_ms')}ms below p50 "
                f"{extra.get('p50_ms')}ms"
            )
    cores = _cores()
    one, four = closed.get(1), closed.get(4)
    if (
        cores >= SCALING_GATE_CORES
        and one is not None
        and four is not None
        and four["extra"]["throughput_rps"]
        < one["extra"]["throughput_rps"] * MIN_SERVICE_SPEEDUP
    ):
        failures.append(
            "service worker-scaling gate: 4 workers sustained "
            f"{four['extra']['throughput_rps']:.1f} rps vs "
            f"{one['extra']['throughput_rps']:.1f} rps at 1 worker — "
            f"need {MIN_SERVICE_SPEEDUP}x on a {cores}-core host"
        )
    for arm in ("open", "serial"):
        if arm not in corpus:
            failures.append(f"service/{arm}/corpus row missing from JSON")
    if corpus:
        for arm, row in corpus.items():
            extra = row["extra"]
            if extra.get("completed", 0) != extra.get("requests", -1):
                failures.append(
                    f"service/{arm}/corpus: only {extra.get('completed')} "
                    f"of {extra.get('requests')} requests completed"
                )
            if row["cache_hits"] < 1:
                failures.append(
                    f"service/{arm}/corpus: no cross-request shared-cache "
                    "hits — duplicate requests did not dedupe"
                )
    return failures


def _check_service_baseline(payload: dict, baseline_path: str) -> list[str]:
    """Perf-regression guard on the serial corpus replay's queries.

    Only the serial arm is pinned: the concurrent arms' counters
    depend on request interleaving (two simultaneous identical
    requests may both miss the cache), so their totals are not
    reproducible run to run.
    """
    if not os.path.exists(baseline_path):
        return [f"service baseline missing: {baseline_path}"]
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("scale_rows") != payload["settings"].get("scale_rows"):
        print(
            "note: service baseline scale_rows "
            f"{baseline.get('scale_rows')} != run scale_rows "
            f"{payload['settings'].get('scale_rows')}; skipping the "
            "regression guard"
        )
        return []
    serial_queries = sum(
        row["queries"]
        for row in payload["rows"]
        if row["method"] == "service/serial/corpus"
    )
    allowed = baseline.get("serial_queries", 0)
    if serial_queries > allowed:
        return [
            "serial corpus replay's backend queries regressed — "
            f"{serial_queries} > baseline {allowed}"
        ]
    return []


def _write_service_baseline(payload: dict, baseline_path: str) -> None:
    baseline = {
        "scale_rows": payload["settings"].get("scale_rows"),
        "serial_queries": sum(
            row["queries"]
            for row in payload["rows"]
            if row["method"] == "service/serial/corpus"
        ),
    }
    with open(baseline_path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(f"wrote baseline {baseline_path}")


def _write_cache_baseline(payload: dict, baseline_path: str) -> None:
    baseline = {
        "scale_rows": payload["settings"].get("scale_rows"),
        "cached_queries": sum(
            row["queries"]
            for row in payload["rows"]
            if row["method"].endswith("/cached")
        ),
    }
    with open(baseline_path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(f"wrote baseline {baseline_path}")


def _write_explore_baseline(payload: dict, baseline_path: str) -> None:
    rows = {row["method"]: row for row in payload["rows"]}
    baseline = {
        "scale_rows": payload["settings"].get("scale_rows"),
        "materialized_queries": {
            backend: rows[f"{backend}/materialized"]["queries"]
            for backend in EXPLORE_BACKENDS
            if f"{backend}/materialized" in rows
        },
    }
    with open(baseline_path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(f"wrote baseline {baseline_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale-rows", type=int, default=1500)
    parser.add_argument(
        "--out",
        default=os.path.join("benchmarks", "results", "BENCH_layers.json"),
    )
    parser.add_argument(
        "--explore-out",
        default=os.path.join("benchmarks", "results", "BENCH_explore.json"),
    )
    parser.add_argument(
        "--cache-out",
        default=os.path.join("benchmarks", "results", "BENCH_cache.json"),
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(
            "benchmarks", "results", "BENCH_explore_baseline.json"
        ),
    )
    parser.add_argument(
        "--cache-baseline",
        default=os.path.join(
            "benchmarks", "results", "BENCH_cache_baseline.json"
        ),
    )
    parser.add_argument(
        "--service-out",
        default=os.path.join(
            "benchmarks", "results", "BENCH_service.json"
        ),
    )
    parser.add_argument(
        "--service-baseline",
        default=os.path.join(
            "benchmarks", "results", "BENCH_service_baseline.json"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the regression baselines from this run",
    )
    parser.add_argument(
        "--service-only",
        action="store_true",
        help="run only the ACQ-as-a-service load-generation section",
    )
    args = parser.parse_args(argv)

    from repro.harness.experiments import (
        evaluation_layers,
        explore_modes,
        grid_cache_sweep,
        service_load,
    )
    from repro.harness.report import render_rows, save_json

    failures = []

    if args.service_only:
        failures += _run_service(args, service_load, render_rows, save_json)
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1 if failures else 0

    result = evaluation_layers(scale_rows=args.scale_rows)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    path = save_json(result, args.out)
    with open(path, encoding="utf-8") as handle:
        failures += _check_layers(json.load(handle))
    print(render_rows(result.rows))
    print(f"\nwrote {path}\n")

    explore = explore_modes(scale_rows=args.scale_rows)
    explore_path = save_json(explore, args.explore_out)
    with open(explore_path, encoding="utf-8") as handle:
        explore_payload = json.load(handle)
    failures += _check_explore(explore_payload)
    if args.update_baseline:
        _write_explore_baseline(explore_payload, args.baseline)
    else:
        failures += _check_explore_baseline(explore_payload, args.baseline)
    print(render_rows(explore.rows))
    print(f"\nwrote {explore_path}\n")

    cache = grid_cache_sweep(scale_rows=args.scale_rows)
    cache_path = save_json(cache, args.cache_out)
    with open(cache_path, encoding="utf-8") as handle:
        cache_payload = json.load(handle)
    failures += _check_cache(cache_payload)
    if args.update_baseline:
        _write_cache_baseline(cache_payload, args.cache_baseline)
    else:
        failures += _check_cache_baseline(cache_payload, args.cache_baseline)
    print(render_rows(cache.rows))
    print(f"\nwrote {cache_path}\n")

    failures += _run_service(args, service_load, render_rows, save_json)

    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _run_service(args, service_load, render_rows, save_json) -> list[str]:
    """Run section 4 (ACQ-as-a-service load generation) and gate it."""
    # Floor the scale: below a few thousand rows a full ACQ search is
    # sub-millisecond and the closed-loop sweep measures thread
    # handoff, not the engine.
    result = service_load(scale_rows=max(args.scale_rows, 4000))
    os.makedirs(os.path.dirname(args.service_out) or ".", exist_ok=True)
    path = save_json(result, args.service_out)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    failures = _check_service(payload)
    if args.update_baseline:
        _write_service_baseline(payload, args.service_baseline)
    else:
        failures += _check_service_baseline(payload, args.service_baseline)
    print(render_rows(result.rows))
    print(f"\nwrote {path}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
