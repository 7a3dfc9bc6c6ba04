"""A clock that runs at the host's steady speed.

On a shared host the same work runs up to twice as slowly for seconds to
minutes at a time, presumably while another tenant loads the same
physical core; the process is not waiting, so CPU time slows with wall
time. SteadyClock measures that speed while the benchmark runs: every
INTERVAL_S a timer signal runs a fixed probe of Python-level small-array
arithmetic, the kind of work the program spends its time on, and the
clock advances by wall time scaled by PROBE_REF_S / (the latest probe's
time). An operation timed with it reads what it would take on a host
where the probe takes PROBE_REF_S; the probes' own time is left out.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.1
PROBE_LOOPS = 400
PROBE_REPEATS = 3
# the probe's time on a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4) at the
# speed it keeps most of the time; it sets the scale of the clock only
PROBE_REF_S = 4.3e-4

_A = np.array([0.25, -0.5, 0.75, 1.0])
_B = np.array([0.5, 0.25, -0.125, 0.0625])


def probe() -> float:
    """Seconds the fixed probe work takes now: the fastest of a few
    repeats, since an interrupt can stretch any single one."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        x, s = _A, 0.0
        for i in range(PROBE_LOOPS):
            x = x * 0.999 + _B
            s += float(x[i & 3]) * 1.0001
        best = min(best, time.perf_counter() - t0)
    return best


class SteadyClock:
    """now() is the steady time; start() and stop() arm and disarm the
    probe timer (SIGALRM), which the program does not use."""

    def __init__(self):
        self.probe_times = []
        self._state = None      # (steady time, wall time, rate) at a probe

    def _sample(self, steady: float) -> None:
        p = probe()
        self.probe_times.append(p)
        # one tuple, swapped whole, so now() never reads a half update
        self._state = (steady, time.perf_counter(), PROBE_REF_S / p)

    def _tick(self, _signum, _frame):
        self._sample(self.now())

    def now(self) -> float:
        steady, wall, rate = self._state
        return steady + (time.perf_counter() - wall) * rate

    def start(self) -> None:
        self._sample(0.0)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
