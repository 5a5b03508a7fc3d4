"""Timing that measures the program, not the other tenants of a shared CPU.

On the shared 2-vCPU virtual machine this benchmark was built on, two
things other than the program changed its wall-clock times from run to run:

* the process was descheduled for milliseconds at a time (the gap between
  wall time and process CPU time reached 8 ms on 1 % of 7 ms calls), and
* the core itself ran slower while other tenants loaded the host: a fixed
  loop took up to 1.75x longer, switching every 0.1 s or so, with spells of
  seconds.

So a timed call is measured in process CPU time (all threads of the
process; the workloads start no other process), which leaves out the time
the process was not running. For the second effect a SIGALRM handler runs
a fixed pure-Python probe every PERIOD_S seconds and records its CPU time.
A call's CPU time, less the probe time inside it, is divided by its
slowdown, the mean probe time during the call over REF_PROBE_S: the result
is the time the call would have taken on the uncontended reference core.
Calls shorter than the period use the probes on either side of them.

Only the standard library is used, so sampling can start before numpy and
uqtchan are imported and set-up time is measured the same way.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.005
PROBE_ITERS = 400
#: probe CPU time in the handler on the uncontended reference core
#: (2-vCPU Xeon VM, Python 3.11.7), so that scaled times read as its seconds
REF_PROBE_S = 4.5e-5


def probe() -> None:
    x = 0.0
    for i in range(PROBE_ITERS):
        x += (i * 0.5) % 3.0


def stamp() -> tuple[float, float]:
    """(wall clock, process CPU time) now."""
    return time.perf_counter(), time.process_time()


class SpeedSampler:
    """Records the wall-clock start and CPU time of a probe every PERIOD_S."""

    def __init__(self):
        self.starts: list[float] = []
        self.cpu: list[float] = []

    def _handler(self, _signum, _frame) -> None:
        wall, c0 = stamp()
        probe()
        self.cpu.append(time.process_time() - c0)
        self.starts.append(wall)

    def start(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Reference-core seconds of the work between two stamp()s."""
        i = bisect.bisect_left(self.starts, start[0])
        j = bisect.bisect_left(self.starts, end[0])
        inside = self.cpu[i:j]
        window = inside or self.cpu[max(i - 1, 0):i + 1]
        slowdown = sum(window) / len(window) / REF_PROBE_S if window else 1.0
        return (end[1] - start[1] - sum(inside)) / slowdown
