"""Host-speed probe for the timed loop.

The benchmark's host is shared: its speed switches between a fast and a
slow state, in phases of seconds to minutes. The same op takes 1.3x to 1.7x
as long in the slow state, and `process_time` slows with it. A wall-clock median over one run therefore
depends on which phases the run happened to meet.

The probe measures the host's speed while an op runs. A ``SIGALRM`` timer
interrupts the main thread every ``INTERVAL`` seconds, and the handler times
one pass of a fixed reference kernel: small numpy calls driven from a Python
loop, the mix the workloads' ops are made of. ``speed(t0, t1)`` is the
median kernel time of the samples taken during an op, so an op's time
divided by it is the op's cost in reference-kernel units, which the host's
phase cancels out of. The kernel lives here, outside the package, so no
change to ``bosonbudget`` can change it.

The handler's own time is summed in ``overhead``; the timed loop subtracts
it from each op. At the default settings the probe takes about 1% of the
loop. A handler runs only between bytecodes of the main thread, so a long
native call delays it; ``speed`` widens its window to at least
``MIN_WINDOW`` seconds, so that short ops and long native calls still get
samples.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02
MIN_WINDOW = 0.5
_M = np.random.default_rng(12345).standard_normal((5, 5)) + 1j * np.random.default_rng(54321).standard_normal((5, 5))


def reference_kernel() -> float:
    """A fixed amount of small-numpy-call work (about 0.2 ms on the reference machine)."""
    s = 0.0
    for _ in range(40):
        a = _M @ _M
        s += abs(a[0, 0])
    return s


class HostProbe:
    """Samples the reference kernel's time on a timer while it is running.

    Use as a context manager around the timed loop. ``times`` and
    ``durations`` are the start time and duration of every sample, in
    ``time.perf_counter`` seconds.
    """

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.times: list[float] = []
        self.durations: list[float] = []
        self.overhead = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.overhead += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def settle(self) -> None:
        """Keep sampling for half a window, so that the last op's window is full."""
        end = time.perf_counter() + MIN_WINDOW / 2
        while time.perf_counter() < end:
            time.sleep(self.interval)

    def speed(self, t0: float, t1: float) -> float:
        """Median kernel time over the samples taken in [t0, t1], widened to MIN_WINDOW."""
        half = max(0.0, (MIN_WINDOW - (t1 - t0)) / 2)
        lo = bisect.bisect_left(self.times, t0 - half)
        hi = bisect.bisect_right(self.times, t1 + half)
        if hi == lo:
            raise RuntimeError(f"host probe took no sample between {t0 - half!r} and {t1 + half!r}")
        return statistics.median(self.durations[lo:hi])
