"""Machine-speed sampler: time a piece of work at a fixed reference speed.

The shared host this benchmark runs on changes speed by up to half for
seconds to minutes at a time, and every piece of pure-Python code slows
down together.  A closed loop's median wall time therefore moves as much
with the host as with the program.  The sampler measures the host's speed
while the work runs: a fixed probe (a small dict-update loop, the kind of
work the pipeline does) runs before the work, every ``INTERVAL_S`` seconds
inside it from a ``SIGALRM`` handler, and after it.  The work's wall time,
minus the time spent in probes, is scaled by ``REFERENCE_PROBE_S`` over the
median probe time seen during it: the seconds the work would take on a
host that runs the probe in exactly ``REFERENCE_PROBE_S``.

A probe never touches galcov, so a change to the program cannot change
the probe; it can only change the work's own time.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

PROBE_ITERATIONS = 1000
REFERENCE_PROBE_S = 1e-4  # the probe's time on the host in a fast spell
INTERVAL_S = 0.01  # probe period inside the work: about 1% of its time


def _probe_work(n):
    d = {}
    for i in range(n):
        k = i % 61
        d[k] = d.get(k, 0) + i
    return d


class SpeedSampler:
    """Times work with probes of the host's speed before, in and after it.

    Use it inside :meth:`installed`, from the main thread.  The timer runs
    only while :meth:`measure` runs the work."""

    def __init__(self):
        self.probes = []  # probe durations of the latest measure()
        self.spent = 0.0  # seconds spent in probes, in total
        self._busy = False

    def probe(self, *_signal_args):
        if self._busy:  # the timer fired during a direct call
            return
        self._busy = True
        t0 = perf_counter()
        _probe_work(PROBE_ITERATIONS)
        elapsed = perf_counter() - t0
        self.probes.append(elapsed)
        self.spent += elapsed
        self._busy = False

    @contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self.probe)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, work):
        """Run ``work()``; return (reference seconds, wall seconds, result).

        Wall seconds exclude the probes that ran inside the work."""
        self.probes = []
        self.probe()
        spent = self.spent
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - t0
        wall -= self.spent - spent
        self.probe()
        return wall * REFERENCE_PROBE_S / statistics.median(self.probes), wall, result
