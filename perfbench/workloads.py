"""The benchmark's workloads: inputs from a seed, references, checks.

Each workload drives the system through public APIs only and sets no
tier knob (``batched``, ``tile_workers``, ``tile_executor``,
``fusion``); ``NOTES.md`` records why each was chosen and its sizes.

* ``fig8_sqlite`` — the Fig 8 ACQ (Q2 three-way join, COUNT, d=3,
  delta 0.05, ratios 0.1-0.9) on :class:`SQLiteBackend` with the default
  incremental config, one closed-loop client. Checked against a
  :class:`MemoryBackend` incremental reference (cross-backend).
* ``service_corpus`` — every corpus manifest triple plus 50%
  target-jittered duplicates through ``AcquireService(workers=2)`` in an
  open loop. Originals are checked against the manifest oracle's
  tie-closed ranking, duplicates against a serial service-free run.

The data and the request set of every workload are fixed, so that a run
measures the same work whatever its seed: the workload seed orders the
closed loop's cycles and draws the service duplicates' targets.
References are computed after set-up and outside its timing.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Sequence

from repro.baselines import BinSearch
from repro.core.acquire import Acquire, AcquireConfig
from repro.corpus.manifest import DEFAULT_MANIFEST_PATH, load_manifest
from repro.datagen.tpch import TPCHConfig, generate_tpch
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.service import AcquireService, ServiceConfig, sample_corpus_requests
from repro.sqlext import format_query, parse_acq
from repro.workloads.generator import build_ratio_workload
from repro.workloads.templates import Q2_JOINS, Q2_TABLES, q2_flex_specs

from perfbench.hostspeed import HostSpeed
from perfbench.loops import Outcome, closed_loop, open_loop

PARTSUPP_ROWS = 20_000
FIG8_RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG8_SELECTIVITY = 0.2
CORPUS_TRIPLES = 205
DUPLICATE_FRACTION = 0.5
#: Seed of ``sample_corpus_requests``: fixes the arrival order and
#: which triples get a duplicate.
CORPUS_SAMPLE_SEED = 7
SERVICE_WORKERS = 2
SERVICE_RATE_RPS = 15.0
SERVICE_LIMIT_MS = 200.0
#: Requests run through a throwaway service during set-up.
SERVICE_WARMUP = 8
#: Host-speed probes before each service pass.
SERVICE_PROBES = 10

_TOL = dict(rel_tol=1e-9, abs_tol=1e-9)


# ----------------------------------------------------------------------
# Answer checks


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, **_TOL)


def _same_vector(a: Sequence[float], b: Sequence[float]) -> bool:
    return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))


def _same_answer(a: Any, b: Any) -> bool:
    """(qscore, error, pscores) equal within 1e-9."""
    return (
        _close(a.qscore, b.qscore)
        and _close(a.error, b.error)
        and _same_vector(a.pscores, b.pscores)
    )


def _describe(answer: Any) -> str:
    scores = ", ".join(f"{score:g}" for score in answer.pscores)
    return f"qscore={answer.qscore:.9g} err={answer.error:.9g} ({scores})"


def compare_results(got: Any, want: Any) -> str:
    """Empty when ``got`` has the answer set of ``want``, else why not."""
    if got.satisfied != want.satisfied:
        return f"satisfied={got.satisfied}, reference {want.satisfied}"
    if not want.satisfied:
        if not _same_answer(got.closest, want.closest):
            return (
                f"closest {_describe(got.closest)}, "
                f"reference {_describe(want.closest)}"
            )
        return ""

    def order(answer: Any) -> tuple:
        return (answer.qscore, answer.error, answer.pscores)

    mine = sorted(got.answers, key=order)
    theirs = sorted(want.answers, key=order)
    if len(mine) != len(theirs):
        return f"{len(mine)} answers, reference {len(theirs)}"
    for rank, (a, b) in enumerate(zip(mine, theirs)):
        if not _same_answer(a, b):
            return f"answer {rank}: {_describe(a)}, reference {_describe(b)}"
    return ""


def check_oracle(result: Any, labeled: Any, top_k: int) -> str:
    """Empty when ``result`` ranks like the oracle's tie-closed top-k:
    rank by rank (qscore, error), and each answer's pscores found in
    its rank's tie group."""
    if not result.satisfied:
        return "no answer, the oracle certifies one"
    want = min(top_k, labeled.ranking_size)
    answers = result.top(top_k)
    if len(answers) < want:
        return f"{len(answers)} of {want} oracle answers"
    remaining = list(labeled.top_closed)
    for rank in range(want):
        answer, entry = answers[rank], labeled.top_closed[rank]
        if not (_close(answer.qscore, entry.qscore)
                and _close(answer.error, entry.error)):
            return (
                f"rank {rank + 1}: {_describe(answer)}, oracle "
                f"qscore={entry.qscore:.9g} err={entry.error:.9g}"
            )
        match = next(
            (
                candidate for candidate in remaining
                if candidate.rank_key == entry.rank_key
                and _same_vector(answer.pscores, candidate.pscores)
            ),
            None,
        )
        if match is None:
            return f"rank {rank + 1}: {_describe(answer)} not in tie group"
        remaining.remove(match)
    return ""


# ----------------------------------------------------------------------
# Measurements


@dataclass
class Measurement:
    """Outcomes of one measured pass plus what the layers report."""

    outcomes: list[Outcome]
    wall_s: float
    throughput_rps: float
    #: Probe times taken between the requests (see ``hostspeed.py``).
    speed: HostSpeed
    service: Any = None
    cache: Any = None

    @property
    def completed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.result is not None]


def _tpch(seed: int) -> Any:
    return generate_tpch(
        TPCHConfig(scale_rows=PARTSUPP_ROWS, seed=seed, tables=Q2_TABLES)
    )


def _ratio_query(
    database: Any, d: int, selectivity: float, ratio: float, name: str
) -> Any:
    return build_ratio_workload(
        database,
        Q2_TABLES,
        q2_flex_specs(d, selectivity),
        ratio,
        aggregate="COUNT",
        joins=Q2_JOINS,
        name=name,
    ).query


@dataclass
class Search:
    """One closed-loop request: a query on a backend, its reference."""

    database: Any
    layer: Any
    query: Any
    reference: Any = None


@dataclass
class ClosedState:
    seed: int
    searches: list[Search] = field(default_factory=list)

    def close(self) -> None:
        for layer in {id(s.layer): s.layer for s in self.searches}.values():
            layer.close()


class Fig8SQLite:
    """The Fig 8 searches run cycle after cycle by one client.

    The searches run on a fixed pool of datasets (TPC-H seeds 1 to
    ``DATASETS``), five ratios each; the workload seed shuffles the
    order of every cycle. The number of cycles follows from the run time
    alone, so both sides of a comparison do the same work:
    ``CYCLE_SECONDS`` is the run time allotted to one cycle, which covers
    a cycle with its share of set-up, references and probes even when
    the host runs 1.5x slow (3 cycles in a 44 s run).
    """

    name = "fig8_sqlite"
    DATASETS = 8
    CYCLE_SECONDS = 14.0
    config = AcquireConfig(gamma=10.0, delta=0.05)
    trace_order = "UTTU"

    def setup(self, seed: int) -> ClosedState:
        state = ClosedState(seed)
        for dataset_seed in range(1, self.DATASETS + 1):
            database = _tpch(dataset_seed)
            layer = SQLiteBackend(database)
            searches = [
                Search(
                    database,
                    layer,
                    _ratio_query(
                        database, 3, FIG8_SELECTIVITY, ratio,
                        f"fig8_r{ratio:g}",
                    ),
                )
                for ratio in FIG8_RATIOS
            ]
            # Warm-up: the cheapest search loads tables and indexes.
            Acquire(layer).run(searches[-1].query, self.config)
            state.searches.extend(searches)
        return state

    def reference(self, state: ClosedState) -> None:
        """The same search on :class:`MemoryBackend` (cross-backend)."""
        for search in state.searches:
            search.reference = Acquire(MemoryBackend(search.database)).run(
                search.query, self.config
            )

    def measure(
        self, state: ClosedState, seconds: float, tracer: Any = None
    ) -> Measurement:
        """As many shuffled cycles as nominally fit in ``seconds``."""
        cycles = max(1, round(seconds / self.CYCLE_SECONDS))
        jobs = [
            partial(Acquire(s.layer).run, s.query, self.config)
            for s in state.searches
        ]
        speed = HostSpeed()

        def before(request: int) -> None:
            # One probe before every search, outside its timing.
            speed.probe()
            if tracer is not None:
                tracer.tag(request)

        outcomes: list[Outcome] = []
        busy: list[float] = []
        rates: list[float] = []
        for cycle in range(cycles):
            order = list(range(len(jobs)))
            random.Random(f"{state.seed}:{cycle}").shuffle(order)
            done = closed_loop(jobs, order, before, first=len(outcomes))
            outcomes.extend(done)
            # The client's time in searches, so the probes are left out.
            busy.append(sum(o.latency_s for o in done))
            rates.append(sum(o.result is not None for o in done) / busy[-1])
        for outcome in outcomes:
            if outcome.result is not None:
                outcome.wrong = compare_results(
                    outcome.result, state.searches[outcome.index].reference
                )
        # The median cycle's rate: a cycle caught in a slow spell of
        # the host does not set the run's figure.
        return Measurement(
            outcomes, sum(busy), statistics.median(rates), speed
        )

    def extras(self, state: ClosedState) -> dict[str, float]:
        """BinSearch on the same queries and backend: mean ms per query,
        the reference point of the Fig 8 wall-clock gap."""
        runs = [
            BinSearch(delta=self.config.delta).run(s.layer, s.query)
            for s in state.searches
        ]
        return {
            "baselines.binsearch_ms": 1000.0
            * sum(run.elapsed_s for run in runs) / len(runs)
        }


# ----------------------------------------------------------------------
# Service corpus


def _jitter_target(query: Any, rng: random.Random) -> Any:
    """The same ACQ with its constraint target nudged by up to 2%, as
    ``sample_corpus_requests`` makes its duplicates."""
    constraint = query.constraint
    target = constraint.target * (1.0 + rng.uniform(-0.02, 0.02))
    if isinstance(constraint.target, int):
        target = max(int(round(target)), 1)
    return query.with_constraint(replace(constraint, target=target))


@dataclass
class CorpusState:
    requests: list[tuple[str, Any, Any]]
    layers: dict[str, Any]
    references: list[Any] = field(default_factory=list)

    @property
    def originals(self) -> int:
        # Every original comes before the duplicates, one backend each.
        return len(self.layers)

    def close(self) -> None:
        for layer in self.layers.values():
            layer.close()


class ServiceCorpus:
    name = "service_corpus"
    # One pass is ~20 s of arrivals, so the traced run has room for two;
    # unlike UTTU, this order leaves host drift in trace.overhead_frac.
    trace_order = "UT"

    def setup(self, seed: int) -> CorpusState:
        service = AcquireService(ServiceConfig(workers=SERVICE_WORKERS))
        try:
            requests = sample_corpus_requests(
                service,
                CORPUS_TRIPLES,
                seed=CORPUS_SAMPLE_SEED,
                duplicate_fraction=DUPLICATE_FRACTION,
            )
            layers = {
                name: service.backend(name)
                for name in service.backend_names()
            }
            for backend, query, config in requests[:SERVICE_WARMUP]:
                service.run(query, config, backend=backend)
        finally:
            service.close()
        # The workload seed draws every duplicate's target afresh; the
        # arrival order stays that of the fixed sample, because which
        # heavy requests arrive close together decides the tail.
        originals = requests[: len(layers)]
        by_backend = {backend: query for backend, query, _ in originals}
        rng = random.Random(seed)
        duplicates = [
            (backend, _jitter_target(by_backend[backend], rng), config)
            for backend, _, config in requests[len(layers):]
        ]
        return CorpusState(originals + duplicates, layers)

    def reference(self, state: CorpusState) -> None:
        labels = {
            triple.spec.triple_id: triple
            for triple in load_manifest(DEFAULT_MANIFEST_PATH).triples
        }
        state.references = [
            labels[backend]
            if index < state.originals
            else Acquire(state.layers[backend]).run(query, config)
            for index, (backend, query, config) in enumerate(state.requests)
        ]

    def measure(
        self, state: CorpusState, seconds: float, tracer: Any = None
    ) -> Measurement:
        """As many whole passes over the request list as fit in
        ``seconds`` of arrivals (or one pass cut to ``seconds``). Each
        pass runs against a fresh service, so the shared grid cache
        starts cold every time; the outcomes of all passes are pooled."""
        arrivals = max(1, int(SERVICE_RATE_RPS * seconds))
        cycles = max(1, arrivals // len(state.requests))
        requests = state.requests[:arrivals]

        def before(index: int) -> None:
            tracer.tag(index)
            tracer.tag_query(requests[index][1], index)

        # The generator probes when no request is in flight; the probes
        # before each pass only make sure there are some.
        speed = HostSpeed()
        outcomes: list[Outcome] = []
        walls: list[float] = []
        for _ in range(cycles):
            speed.probe(SERVICE_PROBES)
            service = AcquireService(ServiceConfig(workers=SERVICE_WORKERS))
            try:
                for name, layer in state.layers.items():
                    service.register_backend(name, layer)
                done = open_loop(
                    service,
                    requests,
                    SERVICE_RATE_RPS,
                    speed.probe,
                    before=before if tracer is not None else None,
                )
            finally:
                service.close()
            outcomes.extend(done)
            walls.append(max(o.end for o in done) - min(o.due for o in done))
        for outcome in outcomes:
            if outcome.result is None:
                continue
            reference = state.references[outcome.index]
            if outcome.index < state.originals:
                top_k = requests[outcome.index][2].top_k
                outcome.wrong = check_oracle(outcome.result, reference, top_k)
            else:
                outcome.wrong = compare_results(outcome.result, reference)
        wall = sum(walls)
        completed = sum(o.result is not None for o in outcomes)
        # Service and cache figures are those of the last pass.
        return Measurement(
            outcomes,
            wall,
            completed / wall,
            speed,
            service.stats(),
            service.grid_cache,
        )

    def extras(self, state: CorpusState) -> dict[str, float]:
        """``parse_acq`` over the SQL text of every original request:
        mean microseconds per statement."""
        total = 0.0
        for backend, query, _ in state.requests[: state.originals]:
            text = format_query(query)
            started = time.perf_counter()
            parse_acq(text, state.layers[backend].database)
            total += time.perf_counter() - started
        return {"sqlext.parse_bind_us": 1e6 * total / state.originals}


WORKLOADS = {
    workload.name: workload
    for workload in (Fig8SQLite(), ServiceCorpus())
}
