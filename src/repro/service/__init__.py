"""ACQ-as-a-service: a concurrent multi-query driver.

The paper frames refinement processing as an interactive workload —
many analysts refining aggregation-constrained queries against one
engine. :class:`AcquireService` is that deployment shape: a long-lived
driver admitting N in-flight ACQ requests against shared
:class:`~repro.engine.backends.EvaluationLayer` backends, one shared
:class:`~repro.core.grid_cache.GridTensorCache` (the cache key is
target-independent, so concurrent sweeps over the same data dedupe
grid work across requests).

Admission control is two budgets plus bounded-queue backpressure:

* a per-request **query budget** clamps each request's
  ``max_grid_queries`` (runtime-enforced by the driver's safety valve);
* a per-request **row budget** rejects requests whose largest
  referenced table exceeds it (the floor of any backend pass);
* at most ``workers + max_queue`` requests are admitted at once —
  beyond that the configured policy either rejects immediately or
  waits (optionally bounded by ``wait_timeout_s``).

Rejections raise :class:`~repro.exceptions.ServiceError` with a stable
``reason`` code. See ``docs/SERVICE.md`` for the full contract and the
load-generator experiment, and :mod:`repro.service.loadgen` for the
open/closed-loop harness.
"""

from repro.service.loadgen import (
    LoadReport,
    RequestRecord,
    percentile,
    run_closed_loop,
    run_open_loop,
    sample_corpus_requests,
)
from repro.service.service import (
    AcquireService,
    ServiceConfig,
    ServiceStats,
)

__all__ = [
    "AcquireService",
    "LoadReport",
    "RequestRecord",
    "ServiceConfig",
    "ServiceStats",
    "percentile",
    "run_closed_loop",
    "run_open_loop",
    "sample_corpus_requests",
]
