"""How fast the host runs Python while a repetition runs.

The CPUs of a shared host slow down by up to 1.6x, for seconds to
minutes at a time, while other tenants load the sibling threads of
their cores; a fixed pure-Python loop slows with them.  A repetition
of a workload runs under ``HostSpeedProbe``: every
``PROBE_INTERVAL_S`` a ``SIGALRM`` handler, in the main thread and so
on the CPU the workload is using, times ``reference_loop``.  ``run.py``
rescales the repetition's wall times by ``REFERENCE_LOOP_S`` over the
median loop time (``normalise``): the times the repetition would have
taken on a host that runs the loop in ``REFERENCE_LOOP_S``.  The
program's own cost moves these figures; the tenants' load mostly does
not.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Time between two probes; each probe takes 0.1-0.2 ms, under 1 % of
#: the repetition.
PROBE_INTERVAL_S = 0.02

#: About the loop's time on an unloaded CPU of the 2-vCPU Xeon VM the
#: first baseline was measured on, so the rescaled figures are close to
#: that machine's unloaded times.
REFERENCE_LOOP_S = 100e-6


def reference_loop() -> int:
    """Fixed interpreter work.  Integer maths only: a loop that made
    containers could start a garbage collection of the workload's
    objects, and time it as the host's slowness."""
    total = 0
    for i in range(2000):
        total += i * i
    return total


class HostSpeedProbe:
    """Context manager timing ``reference_loop`` every
    ``PROBE_INTERVAL_S`` while it is active."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_s(self) -> float:
        """Median loop time; a repetition lasts seconds, so it has
        samples."""
        return statistics.median(self.samples)


def normalise(seconds: float, loop_s: float) -> float:
    """``seconds`` of wall time measured while the loop took ``loop_s``,
    rescaled to a host that runs it in ``REFERENCE_LOOP_S``."""
    return seconds * REFERENCE_LOOP_S / loop_s
