"""Host speed, sampled while the benchmark measures.

On a shared host the same code can run at very different speeds from one
minute to the next: on a 2-vCPU Xeon VM with Python 3.11, the probe below
alternated between about 0.1 ms and 0.2 ms in phases of a fraction of a
second, and the share of slow phases changed from one 25 s run to the next,
so medians of raw wall time moved by up to 30% between runs of the same
code.  The probe is a fixed pure-``Fraction`` loop, the same kind of work as
the program's, and lives here so that no change to the program can make it
faster or slower.

``Sampler`` runs the probe every ``INTERVAL_S`` of wall time while it is
active, from a SIGALRM handler, so the samples cover the measured work
itself.  ``reference_seconds`` converts a wall time into seconds at the
reference speed, the speed at which the probe takes ``REFERENCE_PROBE_S``.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
# About the probe's time in the fast phase of the host described above.
REFERENCE_PROBE_S = 1e-4


def probe():
    """Seconds for a fixed pure-Fraction loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(1, k)
    return time.perf_counter() - start


def reference_seconds(wall, probes):
    """`wall` seconds rescaled to the reference speed, using the probe times
    taken at even intervals during it; their mean speed is the host's mean
    speed over `wall`."""
    return wall * statistics.fmean(REFERENCE_PROBE_S / p for p in probes)


class Sampler:
    """Context manager that samples the probe every INTERVAL_S.

    ``probes`` starts with one sample taken on entry, so even work shorter
    than the interval has one; ``spent`` is the time the samples taken
    inside the block cost, to subtract from the block's wall time.
    """

    def __enter__(self):
        self.probes = [probe()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start
