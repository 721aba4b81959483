"""Machine-speed probe sampled while a timed block runs.

On a shared host the same operation's wall time drifts by up to 2x within
seconds, in CPU time as much as in wall time: the hardware is shared, the
scheduler is not the cause.  While a block is timed, an interval timer
interrupts it every ``INTERVAL_S`` seconds and runs a fixed tick, whose
time tracks how fast the machine runs at that moment.  ``normalise``
subtracts the ticks from the block's wall time and scales the rest by the
tick's reference time over its mean time, so the host's drift cancels and
the program's own time does not.  The ticks are the benchmark's own code and
never call bottleneck_lab, so a change to the program leaves them alone.

Two ticks: ``op_tick`` for the operations, a Python loop over numpy
scalars (like the 1-D monotone chain) plus one small qhull call;
``setup_tick``, the same loop on plain floats, for set-up, which runs before
numpy is imported.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
SETUP_INTERVAL_S = 0.02
# Typical tick times on the 2-vCPU machine where the bounds were set; they
# only fix the scale of the normalised times.
OP_TICK_S = 1.0e-3
SETUP_TICK_S = 1.4e-4

_rng = random.Random(180205861)
_T = sorted(_rng.random() for _ in range(300))
_V = [_rng.random() for _ in range(300)]
_op_inputs = None


def _chain(t, v) -> int:
    hull: list[int] = []
    for i in range(len(t)):
        ti = t[i]
        vi = v[i]
        while len(hull) >= 2:
            a = hull[-2]
            b = hull[-1]
            if (t[b] - t[a]) * (vi - v[a]) - (v[b] - v[a]) * (ti - t[a]) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return len(hull)


def setup_tick() -> float:
    """Wall seconds of one pure-Python tick."""
    t0 = perf_counter()
    _chain(_T, _V)
    return perf_counter() - t0


def op_tick() -> float:
    """Wall seconds of one numpy-and-qhull tick."""
    global _op_inputs
    if _op_inputs is None:
        import numpy as np
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(180205861)
        _op_inputs = (np.array(_T), np.array(_V), rng.random((40, 4)), ConvexHull)
    t, v, q, hull = _op_inputs
    t0 = perf_counter()
    _chain(t, v)
    hull(q)
    return perf_counter() - t0


class Probe:
    """Context manager that runs ``tick`` every ``interval`` seconds of the
    block; tick times accumulate in ``samples`` until cleared."""

    def __init__(self, tick=op_tick, interval: float = INTERVAL_S) -> None:
        self.tick, self.interval = tick, interval
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(self.tick())

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def normalise(wall: float, samples: list[float], reference: float, tick) -> float:
    """``wall`` less the ticks inside it, at the reference machine speed.
    With no sample inside the block, one tick is taken after it."""
    speed = statistics.fmean(samples) if samples else tick()
    return (wall - sum(samples)) * reference / speed
