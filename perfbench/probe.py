"""Machine-speed probe: times a fixed kernel every 10 ms, next to the work.

Hosts shared with other tenants run the same code at speeds that differ
by 1.5x from one 20 ms slice to the next and drift for minutes; wall
seconds of a 20 s run spread by a quarter from run to run. A probe
interrupts the work with ``SIGALRM`` every :data:`PERIOD_S` and times a
small pure-Python kernel there, so its samples see the machine at the
same moments as the work does. The work's time at the reference speed
is then ``(wall - probe time) * (REFERENCE_S / mean(samples)) ** EXPONENT``:
a run on a loaded host and a run on an idle one read about the same,
while a change to the program moves it as it moves the work. Raw wall
seconds are kept next to every scaled figure in the report.

The kernel is fixed. Changing it, :data:`REFERENCE_S` or
:data:`EXPONENT` rescales every time metric and needs a new baseline.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between samples.
PERIOD_S = 0.01
#: Mean kernel seconds at the reference speed (an idle 2-core Intel Xeon
#: 2.1 GHz container, Python 3.11.7).
REFERENCE_S = 150e-6
#: How much more the workloads slow down than the kernel when the host is
#: loaded. The slope of log wall seconds on log kernel seconds ranged from
#: 0.8 to 1.6 by workload over 45 runs at two different times on that
#: container; 1.2 gave the smallest worst run-to-run spread. The kernel's
#: tight loop stays in the core's caches and the workloads do not, which
#: is the likely reason they lose more to a busy neighbour.
EXPONENT = 1.2


def _kernel() -> int:
    total = 0
    for index in range(2000):
        total += index * index % 7
    return total


class SpeedProbe:
    """Context manager sampling the kernel while the ``with`` body runs.

    Only one probe may be active in a process: it owns ``SIGALRM`` and
    the real-time interval timer.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        _kernel()
        took = time.perf_counter() - started
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, wall_seconds: float) -> float:
        """Multiplier from wall seconds to seconds at the reference speed.

        ``wall_seconds`` is measured around the ``with`` body. The factor
        also takes out the probe's own share of that time, which its
        ticks spread evenly over everything that ran.
        """
        if not self.samples:
            return 1.0
        speed = REFERENCE_S / statistics.mean(self.samples)
        return (1.0 - self.spent / wall_seconds) * speed ** EXPONENT
