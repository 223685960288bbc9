"""JSON (de)serialization of the labeled corpus.

A manifest is the committed artifact under ``tests/corpus/data/``: the
list of :class:`~repro.corpus.generator.TripleSpec` recipes together
with, per triple, a content digest of the rebuilt dataset and the
oracle's label (direction, satisfiability, the closed top-k ranking).
The gate rebuilds everything from the recipes and fails loudly on any
drift — data, oracle, or search.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.corpus.generator import TripleSpec, realize
from repro.corpus.oracle import OracleCertificate, OracleEntry, certify
from repro.engine.catalog import Database
from repro.engine.memory_backend import MemoryBackend
from repro.exceptions import CorpusError

MANIFEST_VERSION = 1


def database_digest(database: Database) -> Tuple[Hashable, ...]:
    """Content digest of a catalog database, stable across processes.

    Hashes every column of every table (crc32 of the raw values), so
    two processes building the same dataset agree on the digest while
    any data change — a row more, a value off — yields a different
    one. Memoized on the database object (datasets here are immutable
    once built).
    """
    digest = getattr(database, "_content_digest", None)
    if digest is not None:
        return digest
    tables = []
    for table in sorted(database, key=lambda t: t.name):
        columns = []
        for name in table.schema.column_names:
            values = np.asarray(table.column(name))
            if values.dtype.kind in "OUS":
                raw = "\x00".join(str(v) for v in values.tolist()).encode()
            else:
                raw = np.ascontiguousarray(values).tobytes()
            columns.append((name, zlib.crc32(raw) & 0xFFFFFFFF))
        tables.append((table.name, len(table), tuple(columns)))
    digest = (database.name, tuple(tables))
    database._content_digest = digest  # type: ignore[attr-defined]
    return digest


def digest_hex(database: Database) -> str:
    """Stable short hex digest of a catalog database's full content."""
    raw = repr(database_digest(database)).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def _entry_to_json(entry: OracleEntry) -> dict:
    return {
        "coords": list(entry.coords),
        "pscores": list(entry.pscores),
        "qscore": entry.qscore,
        "error": entry.error,
        "values": list(entry.values),
    }


def _entry_from_json(data: Mapping[str, object]) -> OracleEntry:
    return OracleEntry(
        coords=tuple(int(c) for c in data["coords"]),  # type: ignore[union-attr]
        pscores=tuple(float(s) for s in data["pscores"]),  # type: ignore[union-attr]
        qscore=float(data["qscore"]),  # type: ignore[arg-type]
        error=float(data["error"]),  # type: ignore[arg-type]
        values=tuple(float(v) for v in data["values"]),  # type: ignore[union-attr]
    )


@dataclass(frozen=True)
class LabeledTriple:
    """One corpus triple with its oracle-certified label."""

    spec: TripleSpec
    digest: str
    direction: str
    satisfied: bool
    ranking_size: int
    points_enumerated: int
    top_closed: tuple[OracleEntry, ...]

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "digest": self.digest,
            "label": {
                "direction": self.direction,
                "satisfied": self.satisfied,
                "ranking_size": self.ranking_size,
                "points_enumerated": self.points_enumerated,
                "top_closed": [
                    _entry_to_json(entry) for entry in self.top_closed
                ],
            },
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "LabeledTriple":
        label = data["label"]
        return cls(
            spec=TripleSpec.from_json(data["spec"]),  # type: ignore[arg-type]
            digest=str(data["digest"]),
            direction=str(label["direction"]),  # type: ignore[index]
            satisfied=bool(label["satisfied"]),  # type: ignore[index]
            ranking_size=int(label["ranking_size"]),  # type: ignore[index]
            points_enumerated=int(label["points_enumerated"]),  # type: ignore[index]
            top_closed=tuple(
                _entry_from_json(entry)
                for entry in label["top_closed"]  # type: ignore[index]
            ),
        )


@dataclass(frozen=True)
class CorpusManifest:
    """The committed corpus: seed, family counts, labeled triples."""

    seed: int
    triples: tuple[LabeledTriple, ...]

    @property
    def families(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for triple in self.triples:
            counts[triple.spec.family] = (
                counts.get(triple.spec.family, 0) + 1
            )
        return counts

    def to_json(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "seed": self.seed,
            "families": self.families,
            "triples": [triple.to_json() for triple in self.triples],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "CorpusManifest":
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise CorpusError(
                f"corpus manifest version {version!r} is not supported "
                f"(expected {MANIFEST_VERSION}); rebuild with "
                "`python -m repro.corpus rebuild`"
            )
        return cls(
            seed=int(data["seed"]),  # type: ignore[arg-type]
            triples=tuple(
                LabeledTriple.from_json(triple)
                for triple in data["triples"]  # type: ignore[union-attr]
            ),
        )


def label_spec(spec: TripleSpec) -> tuple[LabeledTriple, OracleCertificate]:
    """Certify one spec with the exhaustive oracle and package it."""
    database, query, config = realize(spec)
    certificate = certify(MemoryBackend(database), query, config)
    if not certificate.satisfied:
        raise CorpusError(
            f"{spec.triple_id}: planted target is unsatisfiable — the "
            "generator's satisfiability-by-construction invariant broke"
        )
    labeled = LabeledTriple(
        spec=spec,
        digest=digest_hex(database),
        direction=certificate.direction,
        satisfied=certificate.satisfied,
        ranking_size=len(certificate.ranking),
        points_enumerated=certificate.points_enumerated,
        top_closed=certificate.top_closed(spec.top_k),
    )
    return labeled, certificate


def build_manifest(
    seed: int = 0,
    counts: Optional[Mapping[str, int]] = None,
    specs: Optional[Iterable[TripleSpec]] = None,
) -> CorpusManifest:
    """Generate, certify and package a full corpus."""
    from repro.corpus.generator import sample_specs

    if specs is None:
        specs = sample_specs(seed, counts)
    labeled = tuple(label_spec(spec)[0] for spec in specs)
    return CorpusManifest(seed=seed, triples=labeled)


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(manifest.to_json(), indent=1, sort_keys=True) + "\n"
    )


def load_manifest(path: str | Path) -> CorpusManifest:
    source = Path(path)
    if not source.exists():
        raise CorpusError(f"corpus manifest not found: {source}")
    return CorpusManifest.from_json(json.loads(source.read_text()))


#: Default location of the committed corpus, relative to the repo root.
DEFAULT_MANIFEST_PATH = (
    Path(__file__).resolve().parents[3]
    / "tests" / "corpus" / "data" / "corpus_manifest.json"
)
