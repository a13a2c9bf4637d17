"""Wall time scaled to a reference machine speed.

On a shared machine the speed of one core drifts by up to 2x within
seconds (other tenants' load on shared caches and memory), and a median
over a 30-second run cannot average that out: the medians of 30-second
windows of repeated ``philosophers(8)`` syntheses spread by 21% between
their quartiles.  So the speed is measured while the work runs: a probe
of about 1.5 ms, which does what the BDD manager does most (hash-consing
int tuples into a growing dict, and reads scattered over an 8 MB list),
runs from a ``SIGALRM`` handler every ``PERIOD_S`` seconds inside a timed
interval and a few times on either side of it.  The interval's wall time,
less the time spent in the probes, is divided by the median probe time
over the probe's reference time.

Over repeated syntheses of the three families, the interval-to-interval
coefficient of variation was 15-19% for wall time, 11-16% when scaled by
probes at the two ends of each interval only, and 6-8% when scaled by
probes taken during it.

The probe is the benchmark's own code, not the toolkit's, so a change to
the toolkit moves the scaled time exactly as it moves the wall time.
Everything runs on the one thread of the process: the handler runs
between two bytecodes of the toolkit and touches none of its state.
"""

from __future__ import annotations

import signal
import statistics
import time

__all__ = ["Clock", "PERIOD_S", "probe"]

PERIOD_S = 0.05
# Probes run on either side of every interval, so that intervals shorter
# than PERIOD_S are scaled too.
EDGE_PROBES = 5
# Median probe time on the reference machine (a 2-core sandbox, Python
# 3.11); scaled times are seconds at that speed.
REFERENCE_S = 0.0016

_SCATTER = [i & 0xFF for i in range(1 << 20)]  # small ints are shared


def probe() -> float:
    """Run the probe once; return its wall time."""
    start = time.perf_counter()
    table: dict[tuple[int, int, int], int] = {}
    x, total, mask = 1, 0, len(_SCATTER) - 1
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 50, x % 4099, (x >> 8) % 4099)
        if key not in table:
            table[key] = len(table)
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += _SCATTER[x & mask]
    return time.perf_counter() - start


class Clock:
    """Times intervals in wall seconds and in seconds at reference speed.

    Owns the process's ``SIGALRM`` handler; the timer runs only inside
    :meth:`time`.  ``run_probe`` stands in for :func:`probe`, so that a
    tracer can keep the probes' time out of the spans they interrupt.
    """

    def __init__(self, run_probe=probe):
        self._probe = run_probe
        self._during: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)
        self._edge = self._edge_probes()

    def _sample(self, signum, frame) -> None:
        self._during.append(self._probe())

    def _edge_probes(self) -> list[float]:
        return [self._probe() for _ in range(EDGE_PROBES)]

    def time(self, fn, *args):
        """Call ``fn(*args)``; return its result, wall and scaled seconds."""
        self._during = []
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start - sum(self._during)
        before, after = self._edge, self._edge_probes()
        self._edge = after
        factor = statistics.median(before + self._during + after) / REFERENCE_S
        return result, wall, wall / factor

    def skip(self) -> None:
        """Measure the speed afresh after untimed work."""
        self._edge = self._edge_probes()
