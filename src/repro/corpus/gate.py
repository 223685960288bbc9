"""The corpus quality-regression gate.

For every committed triple the gate rebuilds the dataset from its
recipe, re-certifies the label with the exhaustive oracle, then runs
the full ACQUIRE driver under four Explore engine configurations —
incremental, materialized, tiled (64-cell tiles) and the default
``auto``, which switches from per-cell Explore to one grid pass
mid-search — asserting each returns the oracle-optimal answer and a
stable, score-monotone top-k ranking whose first element equals the
single-answer (``top_k=1``) result. The report counts the triples
whose ``auto`` search switched.

Run it via ``make corpus-gate`` or ``python -m repro.corpus gate``; on
failure the report prints a per-triple diff of expected versus actual
(qscore, error, pscores) so a quality regression reads like a test
failure, not a checksum mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.acquire import Acquire
from repro.core.result import AcquireResult, RefinedQuery
from repro.corpus.generator import realize
from repro.corpus.manifest import (
    CorpusManifest,
    LabeledTriple,
    digest_hex,
    label_spec,
)
from repro.corpus.oracle import OracleEntry
from repro.engine.memory_backend import MemoryBackend

#: The gated Explore configurations (name, config overrides). The
#: tiled arm's 64-cell tiles make every larger grid stitch seams
#: instead of repeating the materialized arm's one whole-grid tile.
ENGINE_CONFIGS: tuple[tuple[str, dict], ...] = (
    ("incremental", {"explore_mode": "incremental"}),
    ("materialized", {"explore_mode": "materialized"}),
    ("tiled", {"explore_mode": "tiled", "materialize_cell_cap": 64}),
    ("auto", {"explore_mode": "auto"}),
)

_TOL = dict(rel_tol=1e-9, abs_tol=1e-9)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, **_TOL)


def _vector_close(a: Sequence[float], b: Sequence[float]) -> bool:
    return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))


@dataclass
class TripleCheck:
    """Outcome of gating one triple: empty ``problems`` means pass."""

    triple_id: str
    family: str
    problems: list[str]
    #: Whether the ``auto`` arm's search switched to a grid engine.
    switched: bool = False

    @property
    def passed(self) -> bool:
        return not self.problems


@dataclass
class GateReport:
    """Aggregated gate outcome over a manifest."""

    checks: list[TripleCheck]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[TripleCheck]:
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        families: dict[str, int] = {}
        for check in self.checks:
            families[check.family] = families.get(check.family, 0) + 1
        switched = sum(check.switched for check in self.checks)
        lines = [
            f"corpus gate: {len(self.checks)} triples "
            f"({', '.join(f'{k}={v}' for k, v in sorted(families.items()))})",
            f"auto: {switched} of {len(self.checks)} triples switched "
            "to a grid engine mid-search",
        ]
        if self.passed:
            lines.append(
                "PASS: 100% oracle-optimal, stable top-k on "
                + ", ".join(name for name, _ in ENGINE_CONFIGS)
            )
            return "\n".join(lines)
        lines.append(f"FAIL: {len(self.failures)} triple(s) regressed")
        for check in self.failures:
            lines.append(f"- {check.triple_id} [{check.family}]")
            for problem in check.problems:
                lines.append(f"    {problem}")
        return "\n".join(lines)


def _describe_answer(answer: RefinedQuery) -> str:
    scores = ", ".join(f"{score:g}" for score in answer.pscores)
    return (
        f"qscore={answer.qscore:.6g} err={answer.error:.6g} "
        f"pscores=({scores})"
    )


def _describe_entry(entry: OracleEntry) -> str:
    scores = ", ".join(f"{score:g}" for score in entry.pscores)
    return (
        f"qscore={entry.qscore:.6g} err={entry.error:.6g} "
        f"pscores=({scores})"
    )


def _check_ranking(
    engine: str,
    result: AcquireResult,
    expected: LabeledTriple,
    top_k: int,
    problems: list[str],
) -> None:
    """Compare a driver ranking against the oracle's closed top-k."""
    if not result.satisfied:
        problems.append(
            f"{engine}: driver found no answer but the oracle certifies "
            f"{expected.ranking_size} satisfying refinement(s)"
        )
        return
    want = min(top_k, expected.ranking_size)
    answers = result.top(top_k)
    if len(answers) < want:
        problems.append(
            f"{engine}: driver returned {len(answers)} of the {want} "
            "oracle-certified top-k answers"
        )
    for prev, cur in zip(answers, answers[1:]):
        if cur.qscore < prev.qscore - 1e-9:
            problems.append(
                f"{engine}: top-k ranking is not score-monotone "
                f"({_describe_answer(prev)} before {_describe_answer(cur)})"
            )
    # Rank-by-rank (qscore, error) agreement with the oracle, plus a
    # tie-aware pscores match: each driver answer must consume one
    # oracle entry from its own (qscore, error) tie group.
    remaining = list(expected.top_closed)
    for rank, answer in enumerate(answers[:want]):
        entry = expected.top_closed[rank]
        if not _close(answer.qscore, entry.qscore):
            problems.append(
                f"{engine}: rank {rank + 1} qscore mismatch — "
                f"driver {_describe_answer(answer)}, "
                f"oracle {_describe_entry(entry)}"
            )
            continue
        if not _close(answer.error, entry.error):
            problems.append(
                f"{engine}: rank {rank + 1} error mismatch — "
                f"driver {_describe_answer(answer)}, "
                f"oracle {_describe_entry(entry)}"
            )
            continue
        match = next(
            (
                candidate
                for candidate in remaining
                if candidate.rank_key == entry.rank_key
                and _vector_close(answer.pscores, candidate.pscores)
            ),
            None,
        )
        if match is None:
            problems.append(
                f"{engine}: rank {rank + 1} refinement "
                f"{_describe_answer(answer)} is not in the oracle's "
                f"(qscore, error) tie group"
            )
        else:
            remaining.remove(match)


def check_triple(labeled: LabeledTriple) -> TripleCheck:
    """Gate one committed triple end to end."""
    spec = labeled.spec
    problems: list[str] = []
    database, query, config = realize(spec)

    digest = digest_hex(database)
    if digest != labeled.digest:
        problems.append(
            f"dataset digest drifted: committed {labeled.digest}, "
            f"rebuilt {digest} — the generator no longer reproduces "
            "the committed data"
        )
        return TripleCheck(spec.triple_id, spec.family, problems)

    fresh, _ = label_spec(spec)
    if fresh.direction != labeled.direction:
        problems.append(
            f"oracle direction drifted: committed {labeled.direction}, "
            f"recomputed {fresh.direction}"
        )
    if fresh.ranking_size != labeled.ranking_size:
        problems.append(
            f"oracle ranking size drifted: committed "
            f"{labeled.ranking_size}, recomputed {fresh.ranking_size}"
        )
    for rank, (committed, recomputed) in enumerate(
        zip(labeled.top_closed, fresh.top_closed)
    ):
        if not (
            _close(committed.qscore, recomputed.qscore)
            and _close(committed.error, recomputed.error)
        ):
            problems.append(
                f"oracle label drifted at rank {rank + 1}: committed "
                f"{_describe_entry(committed)}, recomputed "
                f"{_describe_entry(recomputed)}"
            )
    if len(fresh.top_closed) != len(labeled.top_closed):
        problems.append(
            f"oracle tie-closed prefix drifted: committed "
            f"{len(labeled.top_closed)} entries, recomputed "
            f"{len(fresh.top_closed)}"
        )
    if problems:
        return TripleCheck(spec.triple_id, spec.family, problems)

    layer = MemoryBackend(database)
    driver = Acquire(layer)
    switched = False
    for engine, overrides in ENGINE_CONFIGS:
        engine_config = replace(config, **overrides)
        result = driver.run(query, engine_config)
        switched = switched or result.stats.switched_after is not None
        _check_ranking(engine, result, labeled, spec.top_k, problems)

        # The top-k ranking must be a pure extension of the single-answer
        # search: element one of top(k) is the k=1 result, bit for bit.
        single = driver.run(query, replace(engine_config, top_k=1))
        if result.satisfied and single.satisfied:
            first = result.answers[0]
            lone = single.answers[0]
            if not (
                _close(first.qscore, lone.qscore)
                and _close(first.error, lone.error)
                and _vector_close(first.pscores, lone.pscores)
            ):
                problems.append(
                    f"{engine}: top(k)[0] {_describe_answer(first)} != "
                    f"top_k=1 answer {_describe_answer(lone)}"
                )
        elif result.satisfied != single.satisfied:
            problems.append(
                f"{engine}: satisfiability depends on top_k "
                f"(k={spec.top_k}: {result.satisfied}, k=1: "
                f"{single.satisfied})"
            )
    return TripleCheck(spec.triple_id, spec.family, problems, switched)


def run_gate(
    manifest: CorpusManifest, limit: Optional[int] = None
) -> GateReport:
    """Gate every triple of a manifest (or the first ``limit``)."""
    triples = manifest.triples[:limit] if limit else manifest.triples
    return GateReport(checks=[check_triple(t) for t in triples])
