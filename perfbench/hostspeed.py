"""Host speed sampled while a timed call runs.

On a shared host the same op can take 1.5x longer in one minute than in the
next, in CPU time as well as in wall time, because the cores slow down, not
because the process waits.  A fixed calibration chunk, which never changes
with the program, is therefore run on a timer signal every ``PERIOD_S`` while
the call runs (and once just before and after it).  Its mean time says how
fast the host was during the call.  The call's own time, with the chunks'
time taken out, is then scaled to *reference seconds*: the time the call
would take on a host that runs the chunk in ``REF_CHUNK_S``.

A faster or slower program moves its reference seconds in full; a faster or
slower host moves them much less than it moves wall seconds.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02  # one chunk per 20 ms of the call: about 4% of its time
REF_CHUNK_S = 1e-3  # chunk time of the reference host

_ONE = np.full(1, 0.5)
_GRID = np.linspace(0.0, 1.0, 2048)


def chunk() -> float:
    """Fixed work in the mix the workloads run: Python steps on one-element
    arrays (the pointwise Newton steps) and whole-array math (the batched
    evaluations)."""
    a, s = _ONE, 0.0
    for _ in range(100):
        a = np.sqrt(a * a + 1.0) - 0.5
        s += float(a[0])
    x = _GRID
    for _ in range(12):
        x = np.sin(x) * 0.9 + np.cos(x) * 0.1
    return s + float(x[0])


class Probe:
    """Times calls with the calibration chunk sampled during each."""

    def __init__(self):
        self._samples: list[float] = []

    def _sample(self, *_):
        start = time.perf_counter()
        chunk()
        self._samples.append(time.perf_counter() - start)

    def call(self, fn):
        """(fn's result, its wall seconds, its reference seconds).  Wall
        seconds leave out the chunks that ran inside the call.  An exception
        from fn propagates after the timer is stopped."""
        samples = self._samples
        samples.clear()
        self._sample()
        before = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
            elapsed = time.perf_counter() - start
            inside = sum(samples[1:])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, before)
        self._sample()
        seconds = max(elapsed - inside, 0.0)
        return result, seconds, seconds * REF_CHUNK_S * len(samples) / sum(samples)
