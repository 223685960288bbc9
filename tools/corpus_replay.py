"""Replay the service corpus mix serially and time it by request kind.

Draws ``sample_corpus_requests(service, 205, seed=7,
duplicate_fraction=0.5)`` (205 corpus triples plus 102 target-jittered
duplicates), then runs every request one at a time through
:class:`~repro.core.acquire.Acquire` on its registered backend, with
one shared 64 MB :class:`~repro.core.grid_cache.GridTensorCache` in
place of the service's. Prints the time spent per request family
(``expansion``, ``contraction``, ``multi``, ``categorical``), per
explore mode and per size (examined grid points), then the counter
fingerprint of the replay: backend queries, box queries, grid passes
and cells, rows scanned, examined points, executed cells, answers and
the cache's hits, misses and bytes.

The fingerprint depends on the program only, never on timing, so two
trees that do the same work print the same one. Times are the fastest
of ``--rounds`` replays, each with a fresh cache; nothing is gated.
Usage, from the repository root::

    PYTHONPATH=src python tools/corpus_replay.py [--rounds N]
"""

from __future__ import annotations

import argparse
import time
from collections import defaultdict
from dataclasses import replace

from repro.core.acquire import Acquire
from repro.core.grid_cache import GridTensorCache
from repro.service import AcquireService, ServiceConfig, sample_corpus_requests

TRIPLES = 205
SEED = 7
DUPLICATE_FRACTION = 0.5
CACHE_BYTES = 64 * 1024 * 1024

#: Examined-point buckets of the size rows: ``(label, low, high)``.
SIZES = (("<50", 0, 50), ("50-999", 50, 1000), (">=1000", 1000, None))

#: Fingerprint rows: label and the ``ExecutionStats`` field summed.
EXECUTION_COUNTERS = (
    ("queries", "queries_executed"),
    ("box queries", "box_queries"),
    ("grid passes", "grid_materializations"),
    ("grid cells", "grid_cells"),
    ("rows scanned", "rows_scanned"),
)


def replay(requests, layers):
    """One serial pass: ``(rows, fingerprint)``, one row per request."""
    cache = GridTensorCache(CACHE_BYTES)
    rows = []
    totals: dict[str, int] = defaultdict(int)
    for backend, query, config in requests:
        config = replace(config, grid_cache=cache)
        started = time.perf_counter()
        result = Acquire(layers[backend]).run(query, config)
        elapsed = time.perf_counter() - started
        stats = result.stats
        rows.append(
            (
                backend.split("-")[0],
                stats.explore_mode,
                stats.grid_queries_examined,
                elapsed,
            )
        )
        for label, counter in EXECUTION_COUNTERS:
            totals[label] += getattr(stats.execution, counter)
        totals["examined points"] += stats.grid_queries_examined
        totals["cells executed"] += stats.cells_executed
        totals["answers"] += len(result.answers)
    totals["cache hits"] = cache.hits
    totals["cache misses"] = cache.misses
    totals["cache bytes"] = cache.current_bytes
    return rows, dict(totals)


def _size(points: int) -> str:
    for label, low, high in SIZES:
        if points >= low and (high is None or points < high):
            return label
    raise AssertionError(points)


def report(rounds: list[list[tuple]]) -> list[str]:
    """Per-group lines: requests, points and the fastest round's ms."""
    groups: dict[tuple[str, str], list[float]] = defaultdict(
        lambda: [0.0] * len(rounds)
    )
    sizes: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
    for index, rows in enumerate(rounds):
        for family, mode, points, elapsed in rows:
            keys = [
                ("all", "all"),
                ("family", family),
                ("mode", mode),
                ("size", _size(points)),
                ("mode+size", f"{mode} {_size(points)}"),
            ]
            for key in keys:
                groups[key][index] += elapsed
                if index == 0:
                    sizes[key][0] += 1
                    sizes[key][1] += points
    lines = [f"{'group':<28}{'requests':>9}{'points':>9}{'ms':>10}"]
    for key in sorted(groups):
        requests, points = sizes[key]
        label = key[1] if key[0] == "all" else f"{key[0]} {key[1]}"
        lines.append(
            f"{label:<28}{requests:>9}{points:>9}"
            f"{min(groups[key]) * 1000:>10.1f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="replays to time; each group reports its fastest (default 3)",
    )
    args = parser.parse_args(argv)
    service = AcquireService(ServiceConfig(workers=1))
    try:
        requests = sample_corpus_requests(
            service, TRIPLES, seed=SEED, duplicate_fraction=DUPLICATE_FRACTION
        )
        layers = {name: service.backend(name) for name in service.backend_names()}
    finally:
        service.close()
    rounds, fingerprint = [], None
    for _ in range(max(args.rounds, 1)):
        rows, totals = replay(requests, layers)
        if fingerprint is not None and totals != fingerprint:
            raise SystemExit(f"replays disagree: {totals} != {fingerprint}")
        rounds.append(rows)
        fingerprint = totals
    print("\n".join(report(rounds)))
    print("fingerprint:")
    for label, value in fingerprint.items():
        print(f"  {label:<16}{value:>12,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
