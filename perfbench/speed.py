"""Core-speed probe: rescales measured time to a reference core speed.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes without any hypervisor steal (most likely other
tenants on the same physical cores), so the same job's CPU time moves
with it.  While a
probe is running, a fixed pure-Python loop runs from a ``SIGALRM``
handler every :data:`INTERVAL_S` seconds, in the main thread and so on
the core that is running the measured code at that moment, and its
thread CPU time gives that core's speed.  The *speed* of an interval
is :data:`REFERENCE_S` divided by the loop's mean CPU time over it: 1.0
at the reference speed, below 1 on a slower core.  (The mean of the
per-sample ratios weighs the rare very short samples too heavily.)

An interval of ``t`` seconds at speed ``v`` holds the work of ``t * v``
seconds at the reference speed; the benchmark reports that as the
*reference* time of the interval.  The loop itself takes about 1% of
the measured time, at any speed.
"""

from __future__ import annotations

import atexit
import signal
import statistics
import time
from typing import List, Optional, Tuple

#: Seconds between samples.
INTERVAL_S = 0.02
#: Thread CPU seconds of one :func:`probe_loop` at the reference speed:
#: about its mean on the 2-vCPU Intel Xeon VM (Python 3.11) the benchmark's
#: bounds were set on.
REFERENCE_S = 175e-6


def probe_loop() -> int:
    """Fixed work of the same kind as the program's: wide-integer
    arithmetic and small-dict stores."""
    x, table = 0x123456789ABCDEF, {}
    for i in range(300):
        x = (x * 6364136223846793005 + 1442695040888963407) \
            & ((1 << 256) - 1)
        table[i & 63] = x ^ (x >> 17)
    return x


class SpeedProbe:
    """Samples core speed from a ``SIGALRM`` timer (main thread only)."""

    def __init__(self) -> None:
        #: ``(time.perf_counter() at the sample, loop CPU seconds)``.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        begin = time.thread_time()
        probe_loop()
        cpu = time.thread_time() - begin
        self.samples.append((time.perf_counter(), cpu))

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        # Interpreter shutdown restores the default SIGALRM action, which
        # kills the process: the timer must be off before that.
        atexit.register(self.stop)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, start: float, end: Optional[float] = None) -> float:
        """Speed over the samples taken between two ``perf_counter``
        times (``end`` open: now)."""
        end = time.perf_counter() if end is None else end
        cpus = [cpu for at, cpu in self.samples if start <= at <= end]
        if not cpus:   # shorter than INTERVAL_S: the latest sample before
            cpus = [cpu for at, cpu in self.samples if at <= end][-1:]
        return REFERENCE_S / statistics.fmean(cpus)
