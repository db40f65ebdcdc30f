"""How fast the CPU runs this process right now, sampled while it works.

On a shared virtual machine the same pure-Python work can take 1.5 times
longer for tens of seconds at a stretch, because other tenants contend for
the physical core under this vCPU; timings taken a minute apart then differ
by more than any change worth measuring.  ``SpeedProbe`` runs a fixed
reference loop from a SIGALRM handler every ``INTERVAL_S`` seconds of a
timed pass, in the same process and on the same vCPU as the work, and
records how long each run of the loop took.  ``scaled`` divides a measured
time by the loop's slowdown while it was measured (median loop time over
REFERENCE_S), giving the time at the speed where the loop takes REFERENCE_S,
about this machine's quiet speed.  Time spent in the handler is left out of
every measurement.  Signals interrupt the work only between bytecodes; there
is no thread.

A plain integer loop was kept over list walks and a dict-building loop: on
repeated passes over the same inputs it tracked the work's slowdowns best.
Pass-time spread (interquartile range over median) went from 0.23 measured
to 0.02 scaled on family-n7 and from 0.17 to 0.06 on compute-vertex; the
standard deviation over mean went from 0.11 to 0.04 on compute-edge, whose
subset DP leans on the caches and slows somewhat more than the loop does.
"""

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
LOOP_STEPS = 3000
# The loop's time when nothing contends for the core (Xeon, 2.0 GHz,
# CPython 3.11).  A constant, so that every run is scaled to the same speed;
# its value only sets the unit.
REFERENCE_S = 0.0002
NEAREST = 5


def _reference_loop() -> int:
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
    return total


def _loop_seconds() -> float:
    start = perf_counter()
    _reference_loop()
    return perf_counter() - start


def slowdown_now() -> float:
    """Slowdown measured on the spot, for work that just ended."""
    return statistics.median(_loop_seconds() for _ in range(NEAREST)) / REFERENCE_S


class SpeedProbe:
    def __init__(self):
        self.samples = []        # (end time, loop seconds)
        self.handler_s = 0.0     # total time spent in the handler

    def _sample(self, signum, frame):
        start = perf_counter()
        loop = _loop_seconds()
        self.samples.append((perf_counter(), loop))
        self.handler_s += perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds``, measured over [start, end], at the reference speed.
        The slowdown is the median loop time over the interval, or over the
        NEAREST samples to it when fewer fell inside."""
        if not self.samples:     # the work ended before the first tick
            self.samples.append((perf_counter(), _loop_seconds()))
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            middle = (start + end) / 2
            inside = [s for _, s in sorted(
                self.samples, key=lambda sample: abs(sample[0] - middle))[:NEAREST]]
        return seconds * REFERENCE_S / statistics.median(inside)
