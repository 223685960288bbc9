"""The repository benchmark: one command, every metric, checked answers.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig8_sqlite --seed 1 --seconds 44 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), computes the answer references, then measures for
``--seconds`` and prints the end-to-end metrics, their times scaled to
a reference host speed (``hostspeed.py``). ``--trace 1`` splits
``--seconds`` among untraced and traced passes over the same requests
and prints the per-layer metrics; the spans go to ``.perfbench_out/``.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Set-up runs at least this often and for at least this long in all;
#: ``setup_s`` is the median run.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
#: Host-speed probes on each side of every set-up.
SETUP_PROBES = 10


def _metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of ``BENCHMARK.json``'s ``kind`` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def reset_peak_rss() -> None:
    """Restart the process's resident-set high-water mark (Linux)."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_kb() -> int:
    """Resident-set high-water mark since the last reset, in KiB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _latencies_ms(measurement) -> list[float]:
    return sorted(1000.0 * o.latency_s for o in measurement.completed)


def _slo_miss_frac(measurement, limit_ms: float) -> float:
    """Failed, refused, or over the limit, over all attempted."""
    missed = sum(
        1 for o in measurement.outcomes
        if o.failed or o.result is None or 1000.0 * o.latency_s > limit_ms
    )
    return missed / len(measurement.outcomes)


def end_to_end(workload, measurement, setup_s: float, notes: list[str]):
    from perfbench.loops import nearest_rank, tail
    from perfbench.workloads import SERVICE_LIMIT_MS, ServiceCorpus

    latencies = _latencies_ms(measurement)
    tail_ms, tail_pct = tail(latencies)
    notes.append(
        f"latency_tail_ms is p{tail_pct:.1f} of n={len(latencies)} "
        "completed requests"
    )
    outcomes = measurement.outcomes
    notes.append(
        f"failed_frac = {sum(o.failed for o in outcomes) / len(outcomes):.6f}"
    )
    if isinstance(workload, ServiceCorpus):
        notes.append(
            f"slo_miss_frac = {_slo_miss_frac(measurement, SERVICE_LIMIT_MS):.6f}"
            f" (limit {SERVICE_LIMIT_MS:g} ms)"
        )
        lags = [1000.0 * o.lag_s for o in outcomes]
        notes.append(
            f"loadgen lag: mean {_mean(lags):.3f} ms, max {max(lags):.3f} ms"
        )
    p50_ms = nearest_rank(latencies, 0.5)
    throughput = measurement.throughput_rps
    factor = measurement.speed.factor
    notes.append(
        f"host factor {factor:.4f} over {len(measurement.speed.samples)} "
        f"probes; unscaled p50 {p50_ms:.4f} ms, tail {tail_ms:.4f} ms, "
        f"throughput {throughput:.4f} 1/s"
    )
    # Times in reference-host units (hostspeed.py). The open loop's
    # completion rate follows its arrival schedule, not the host.
    if not isinstance(workload, ServiceCorpus):
        throughput *= factor
    return {
        "latency_p50_ms": p50_ms / factor,
        "latency_tail_ms": tail_ms / factor,
        "throughput_rps": throughput,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }


def per_layer(workload, untraced, traced, spans, extras, notes: list[str]):
    """Per-layer metrics from the spans of ``traced[0]``; ``untraced``
    and ``traced`` are all passes of each kind, for the overhead."""
    from perfbench.tracing import breakdown
    from perfbench.workloads import SERVICE_LIMIT_MS, ServiceCorpus

    if isinstance(workload, ServiceCorpus):
        overhead = _mean(
            [ms for m in traced for ms in _latencies_ms(m)]
        ) / _mean([ms for m in untraced for ms in _latencies_ms(m)])
    else:
        overhead = sum(m.wall_s for m in traced) / sum(
            m.wall_s for m in untraced
        )
    untraced, traced = untraced[0], traced[0]
    layers = breakdown(spans)
    notes.extend(f"trace problem: {problem}" for problem in layers.problems)
    results = [o.result for o in traced.completed]
    execution = [result.stats.execution for result in results]
    queries = sum(e.queries_executed for e in execution)
    engine_ms = sum(
        ms for name, ms in layers.self_ms.items() if name.startswith("engine.")
    )
    # Layers that do not run on this workload read 0.
    metrics = dict.fromkeys(_metric_units("per_layer"), 0.0)
    for kind in ("cell", "box", "grid"):
        metrics[f"engine.{kind}_calls"] = layers.calls.get(f"engine.{kind}", 0)
        metrics[f"engine.{kind}_ms"] = layers.self_ms.get(f"engine.{kind}", 0.0)
    metrics.update({
        "engine.prepare_ms": layers.self_ms.get("engine.prepare", 0.0),
        "engine.queries_executed": queries,
        "engine.rows_scanned": sum(e.rows_scanned for e in execution),
        "engine.us_per_query": 1000.0 * engine_ms / queries if queries else 0.0,
        "core.acquire.self_ms": layers.self_ms.get("core.acquire", 0.0),
        "core.acquire.grid_queries": sum(
            r.stats.grid_queries_examined for r in results
        ),
        "core.acquire.repartition_probes": sum(
            r.stats.repartition_probes for r in results
        ),
        "core.explore.self_ms": layers.self_ms.get("core.explore", 0.0),
        "core.explore.cells_executed": sum(
            r.stats.cells_executed for r in results
        ),
        "core.plan.choose_ms": layers.self_ms.get("core.plan", 0.0),
        "core.contraction.ms": layers.self_ms.get("core.contraction", 0.0),
        "core.grid_cache.lookup_ms": layers.self_ms.get(
            "core.grid_cache.lookup", 0.0
        ),
        "core.grid_cache.put_ms": layers.self_ms.get("core.grid_cache.put", 0.0),
        "trace.spans": len(spans),
    })
    cache = traced.cache
    if cache is not None:
        lookups = cache.hits + cache.misses
        metrics.update({
            "core.grid_cache.hits": cache.hits,
            "core.grid_cache.misses": cache.misses,
            "core.grid_cache.hit_rate": cache.hits / lookups if lookups else 0.0,
            "core.grid_cache.evictions": cache.evictions,
            "core.grid_cache.bytes": cache.current_bytes,
        })
    if isinstance(workload, ServiceCorpus):
        stats = traced.service
        waits = [
            1000.0 * (layers.request_start[o.index] - o.due)
            for o in traced.completed
            if o.index in layers.request_start
        ]
        lags = [1000.0 * o.lag_s for o in traced.outcomes]
        metrics.update({
            "service.queue_wait_ms": _mean(waits),
            "service.run_ms": _mean(layers.request_ms),
            "service.rejected": stats.rejected_queue
            + stats.rejected_budget + stats.timeouts,
            "service.peak_in_flight": stats.peak_in_flight,
            "service.slo_miss_frac": _slo_miss_frac(untraced, SERVICE_LIMIT_MS),
            "loadgen.lag_ms": _mean(lags),
            "loadgen.lag_max_ms": max(lags),
        })
    metrics["trace.overhead_frac"] = overhead - 1.0
    metrics.update(extras)
    request_total = sum(layers.request_ms)
    layer_total = sum(
        ms for name, ms in layers.self_ms.items() if name != "service.submit"
    )
    notes.append(
        f"per-layer self times sum to {layer_total:.3f} ms over "
        f"{len(layers.request_ms)} request spans of {request_total:.3f} ms"
    )
    return metrics, not layers.problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import HostSpeed
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    setup_times, scaled_setups, state = [], [], None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        if state is not None:
            # Drop the previous set-up's data before building the next.
            state.close()
            state = None
        speed = HostSpeed()
        speed.probe(SETUP_PROBES)
        started = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - started)
        speed.probe(SETUP_PROBES)
        scaled_setups.append(setup_times[-1] / speed.factor)
    workload.reference(state)
    # peak_rss_mb covers the measured passes only.
    reset_peak_rss()

    notes: list[str] = [
        "setup_s runs, unscaled: "
        + ", ".join(f"{t:.4f}" for t in setup_times)
    ]
    if args.trace:
        # Untraced (U) and traced (T) passes over the same requests, in
        # the workload's order (UTTU cancels a linear drift in host
        # speed); per-layer numbers come from the first traced pass.
        passes: dict[bool, list] = {False: [], True: []}
        tracers = []
        for step in workload.trace_order:
            tracer = Tracer() if step == "T" else None
            if tracer is not None:
                tracers.append(tracer)
                tracer.install()
            try:
                passes[tracer is not None].append(
                    workload.measure(
                        state,
                        args.seconds / len(workload.trace_order),
                        tracer=tracer,
                    )
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
        extras = workload.extras(state)
        tracers[0].write(
            ROOT / ".perfbench_out"
            / f"{workload.name}-seed{args.seed}.spans.jsonl"
        )
        measurements = passes[False] + passes[True]
        metrics, trace_ok = per_layer(
            workload, passes[False], passes[True], tracers[0].spans, extras,
            notes,
        )
        units = _metric_units("per_layer")
    else:
        measurement = workload.measure(state, args.seconds)
        measurements = [measurement]
        metrics = end_to_end(
            workload, measurement, statistics.median(scaled_setups), notes
        )
        trace_ok = True
        units = _metric_units("end_to_end")
    state.close()
    if set(metrics) != set(units):
        raise RuntimeError(
            f"computed metrics {sorted(metrics)} differ from "
            f"BENCHMARK.json's {sorted(units)}"
        )

    outcomes = [o for m in measurements for o in m.outcomes]
    failures = [o for o in outcomes if o.failed]
    for outcome in failures[:10]:
        print(
            f"request {outcome.index} failed: "
            f"{outcome.error or outcome.refused or outcome.wrong}"
        )
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    correct = trace_ok and not any(o.error or o.wrong for o in outcomes)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
