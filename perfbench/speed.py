"""Host speed meter: scales measured times to the reference host's speed.

The host shares its cores with other tenants.  Its speed moves in phases
of a few seconds, by up to half, on CPU time as much as on wall time, so
two runs of one seed can differ by a third.  While a measured call runs,
a wall-clock timer interrupts it every :data:`SAMPLE_INTERVAL_S` and
takes the thread CPU time of :func:`probe`, a fixed mix of interpreter
work and small numpy calls that never touches the program.  The mean
probe time over :data:`REFERENCE_S` is the call's slowdown; dividing the
call's time by it cancels the phases the call ran through and leaves the
program's own cost.  The probes take about 4% of each call's wall time.

CPU time, not wall time, keeps the slowdown independent of the
program's own processes: a probe that waits for a core while pool
workers hold both does not count the wait.  Two busy processes on a
2-vCPU host still raise the probe's CPU time by about 5-10%, from shared
caches, so a pooled call reads that much slower a host than a serial one.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Optional

import numpy as np

SAMPLE_INTERVAL_S = 0.2

#: :func:`probe` CPU seconds on the reference host (2-vCPU Xeon, Python 3.11,
#: numpy 2.4): times divided by the slowdown read as if measured there.
REFERENCE_S = 0.008


def probe() -> float:
    """CPU seconds of this thread for a fixed mix of interpreter work and
    small numpy calls.

    Thread CPU time excludes the time the probe waits for a core, so the
    program's own processes (``tune_replay``'s pool workers) do not read
    as a slower host.
    """
    a = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    start = time.thread_time()
    for i in range(2500):
        b = np.maximum(a, 0.5) * 1.0001
        acc += float(b[i % 64])
    return time.thread_time() - start


class SpeedMeter:
    """``with meter:`` samples the probe while the enclosed code runs.

    The SIGALRM handler stays installed for the life of the process, so a
    late alarm never meets the default action, which would kill it.
    Forked workers inherit the handler but not the timer.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self._samples: Optional[List[float]] = None
        self.interval_s = interval_s
        self.slowdown = 1.0
        #: Wall seconds the probes took during the last ``with`` block.
        self.probe_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._samples is not None:
            start = time.perf_counter()
            self._samples.append(probe())
            self.probe_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedMeter":
        self._samples = []
        self.probe_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        samples, self._samples = self._samples, None
        if not samples:  # the code ran shorter than one interval
            samples = [probe()]
        self.slowdown = statistics.mean(samples) / REFERENCE_S
        return False
