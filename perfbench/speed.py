"""Machine-speed calibration for the timed loop.

The shared 2-core VM the benchmark was made on runs the same pure-Python
work up to 2x slower in spells of tens of seconds, and the program's CPU
time grows by the same factor, so neither wall nor CPU time of one run says
how fast the program is.  A fixed probe kernel, written here and sharing no
code with compfade, slows in step with the program: over the same 90 s, the
raw time of a batch of oracle points moved by up to 2.9x, its ratio to the
probe's time around it by 5% at most.

``Speed`` runs the probe every ``PERIOD_S`` from a SIGALRM handler, so it
samples the machine during long ops too, and keeps each probe's start and
duration.  A span of work of raw duration ``dt`` at ``[a, b]`` is reported
as ``dt * REF_PROBE_S / p``, with ``p`` the mean duration of the probes
within ``WINDOW_S`` of the span: seconds at the machine speed at which one
probe takes ``REF_PROBE_S``.  The time spent in probes is taken out of the
op and round times before scaling.  ``setup_s`` has a reference of its
own, below.
"""

from __future__ import annotations

import bisect
import math
import signal
import sys
from time import perf_counter

PERIOD_S = 0.025
WINDOW_S = 0.5
# Probe duration on an Intel Xeon 2.1 GHz VM (Python 3.11) in its fast
# spells; the reported times are seconds at that speed.
REF_PROBE_S = 0.0007
# Interpreter start-up follows the machine's spells less than the probe:
# ``run.setup_time`` divides each set-up by the time of this reference
# start, which does the same kind of work (exec, imports, page faults).
# Over two minutes the set-up time moved by 20% and its ratio to the
# reference by 5%.  ``REF_START_S`` is the reference start's duration on
# the same machine.
REF_START = [sys.executable, "-c", "import numpy"]
REF_START_S = 0.15


def _f(y, a=1.3, b=0.7):
    return math.exp(-b * y + a * math.log(y)) * math.lgamma(a + y) / (1.0 + y * y)


def probe_kernel() -> float:
    """A fixed scalar-callback quadrature, the kind of work compfade does."""
    s, h = 0.0, 1e-3
    for i in range(1, 2001):
        s += _f(i * h) * h
    return s


class Speed:
    """Probe timestamps and durations of one run (single thread)."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self.spent = 0.0  # total seconds inside probes

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        probe_kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, a: float, b: float) -> float:
        """Factor that turns raw seconds spent in ``[a, b]`` into seconds
        at the reference speed."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if hi == lo:
            raise RuntimeError("no speed probe near a timed span")
        return REF_PROBE_S * (hi - lo) / math.fsum(self.durations[lo:hi])
