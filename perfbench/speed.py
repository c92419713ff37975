"""Rescale wall times to a fixed machine speed.

The machine the benchmark runs on is shared: the same pure-Python work can
take 30% longer in one minute than in the next. Each timed call is
therefore sampled with a speed probe, a fixed piece of work much like
blocktool's own: it composes small permutation tuples and stores them in
a dict, with the garbage collector paused. Probes run at the start and
end of the call and, through ``SIGALRM``, every ``INTERVAL`` seconds
during it. A probe's slowdown is its time over ``NOMINAL_PROBE_S``. The
call's *reference time* is its wall time, probes excluded, divided by
the median slowdown of its probes raised to ``EXPONENT``.

The probe's speed swings more than blocktool's: regressing log call time
on log probe time gave slopes of 0.67 to 0.73 for PSL(2,11) ``verify``
and M11 ``table`` calls. Dividing by the full slowdown over-corrected
(five-seed quartile spread of ``table-cache`` ``item_max_s``: 30% raw,
26% full, 11% with the exponent 0.7).
"""

from __future__ import annotations

import gc
import signal
from statistics import median
from time import perf_counter

PROBE_STEPS = 1_000
NOMINAL_PROBE_S = 0.0015
INTERVAL = 0.05
EDGE_PROBES = 3  # probes before and after each call, so short calls get a median too
EXPONENT = 0.7

_P = (3, 1, 4, 0, 2, 6, 5, 7)
_Q = (1, 0, 2, 3, 4, 5, 6, 7)


def probe() -> float:
    """Seconds for a fixed amount of interpreter work."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    x, seen = _P, {}
    for i in range(PROBE_STEPS):
        g = _Q if i & 1 else _P
        x = tuple(g[j] for j in x)
        seen[x] = i
    seconds = perf_counter() - t0
    if collecting:
        gc.enable()
    return seconds


class SpeedSampler:
    """Times calls in wall seconds and in reference seconds."""

    def __init__(self):
        self._probe_s = 0.0
        self._slowdowns: list[float] = []

    def _sample(self, *_signal_args):
        t0 = perf_counter()
        self._slowdowns.append(probe() / NOMINAL_PROBE_S)
        self._probe_s += perf_counter() - t0

    def timed(self, fn, *args):
        """``(result, wall seconds, reference seconds)`` of ``fn(*args)``."""
        self._probe_s, self._slowdowns = 0.0, []
        for _ in range(EDGE_PROBES):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - t0 - self._probe_s
        for _ in range(EDGE_PROBES):
            self._sample()
        return result, wall, wall / median(self._slowdowns) ** EXPONENT
