"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps a fixed list of public entry points *by
name* (``ENGINE_METHODS`` on each backend class, ``compute_aggregate``
and ``prime_cells`` on each Explore engine, the driver, the service and
the grid cache). Renaming or deleting one of them breaks the repository
benchmark; this test makes that a tier-1 failure: ``install()`` must
find every name, wrap it, and ``uninstall()`` must restore each
patched attribute exactly — the original object where the class
defined it, nothing where it was inherited. The driver must also look
the wrapped names up at call time: a contraction search records its
``core.contraction`` span only if the driver calls
``contraction.contract_query`` through the module.
"""

import numpy as np
import pytest

from perfbench.tracing import ENGINE_METHODS, Tracer
from repro.core import acquire, contraction
from repro.core.query import ConstraintOp
from repro.engine.catalog import Database
from repro.core.explore import Explorer
from repro.core.grid_cache import GridTensorCache
from repro.core.grid_explore import GridExplorer, TiledGridExplorer
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.service.service import AcquireService
from tests.conftest import count_query

#: Every namespace ``Tracer.install`` patches.
OWNERS = (
    acquire.Acquire,
    AcquireService,
    acquire,
    contraction,
    Explorer,
    GridExplorer,
    TiledGridExplorer,
    GridTensorCache,
    MemoryBackend,
    SQLiteBackend,
)


def _namespaces() -> list[dict]:
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_wraps_every_name_and_uninstall_restores_it():
    before = _namespaces()
    tracer = Tracer()
    try:
        tracer.install()
        for backend in (MemoryBackend, SQLiteBackend):
            for attrs in ENGINE_METHODS.values():
                for attr in attrs:
                    assert hasattr(vars(backend)[attr], "__wrapped__"), (
                        backend.__name__,
                        attr,
                    )
        for explorer in (Explorer, GridExplorer, TiledGridExplorer):
            for attr in ("compute_aggregate", "prime_cells"):
                assert hasattr(vars(explorer)[attr], "__wrapped__"), (
                    explorer.__name__,
                    attr,
                )
    finally:
        tracer.uninstall()
    after = _namespaces()
    for owner, was, now in zip(OWNERS, before, after):
        assert now.keys() == was.keys(), owner
        for name, value in was.items():
            assert now[name] is value, (owner, name)


@pytest.mark.parametrize(
    "op, target",
    [(ConstraintOp.LE, 300.0), (ConstraintOp.EQ, 300.0)],
    ids=["le", "eq-overshoot"],
)
def test_contraction_span_holds_the_box_reads(op, target):
    """A ``<=`` search and an ``=`` search whose original query
    overshoots each record one ``core.contraction`` span inside their
    ``core.acquire`` span, and every box read sits under it."""
    rng = np.random.default_rng(3)
    database = Database()
    database.create_table(
        "data",
        {"x": rng.uniform(0, 100, 1000), "y": rng.uniform(0, 100, 1000)},
    )
    query = count_query("data", {"x": 80.0, "y": 80.0}, target, op=op)
    tracer = Tracer()
    tracer.install()
    try:
        result = acquire.Acquire(MemoryBackend(database)).run(
            query, acquire.AcquireConfig(gamma=10.0)
        )
    finally:
        tracer.uninstall()
    assert result.original_value > target
    assert result.stats.explore_mode == "box"
    roots = [span for span in tracer.spans if span.parent is None]
    assert [span.name for span in roots] == ["core.acquire"]
    shrinks = [
        span for span in tracer.spans if span.name == "core.contraction"
    ]
    assert len(shrinks) == 1
    assert shrinks[0].parent is roots[0]
    boxes = [span for span in tracer.spans if span.name == "engine.box"]
    assert len(boxes) == result.stats.execution.box_queries > 0
    assert all(span.parent is shrinks[0] for span in boxes)
