"""Host speed, measured by a fixed probe interleaved with the work.

The benchmark's host is a shared 2-core machine whose CPU speed drifts
by up to about 1.6x over minutes, and every wall-clock figure of a run
moves with it. The probe is a fixed pure-Python loop that shares no
code with the program; timing it between the measured requests, never
beside one, gives the run's host factor, the median probe time over
its nominal time.
The end-to-end times are reported divided by it (rates multiplied), in
"reference-host" units: what the run would have read had the probe
taken its nominal time. ``NOTES.md`` has the measurements behind this.
"""

from __future__ import annotations

import statistics
import time

PROBE_LOOPS = 150_000
#: The probe's time on the reference host (2-core x86-64 VM, CPython
#: 3, in its fast periods); the unit the scaled figures are given in.
PROBE_NOMINAL_S = 0.006


class HostSpeed:
    """Probe times collected over one measured region."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            started = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOPS):
                total += i
            self.samples.append(time.perf_counter() - started)

    @property
    def factor(self) -> float:
        """How much slower than the reference the host ran: above 1 in
        a slow spell. The median probe, so one preempted probe does not
        move it."""
        return statistics.median(self.samples) / PROBE_NOMINAL_S
