"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps a fixed list of public entry points *by
name* (``ENGINE_METHODS`` on each backend class, ``compute_aggregate``
and ``prime_cells`` on each Explore engine, the driver, the service and
the grid cache). Renaming or deleting one of them breaks the repository
benchmark; this test makes that a tier-1 failure: ``install()`` must
find every name, wrap it, and ``uninstall()`` must restore each
patched attribute exactly — the original object where the class
defined it, nothing where it was inherited.
"""

from perfbench.tracing import ENGINE_METHODS, Tracer
from repro.core import acquire, contraction
from repro.core.explore import Explorer
from repro.core.grid_cache import GridTensorCache
from repro.core.grid_explore import GridExplorer, TiledGridExplorer
from repro.engine.memory_backend import MemoryBackend
from repro.engine.sqlite_backend import SQLiteBackend
from repro.service.service import AcquireService

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
