"""Host-speed scaling of measured times.

The reference host is shared: while other tenants load it, the same Python
code runs up to about 1.8 times slower, in stretches from milliseconds to
minutes.  Timing a fixed probe before and after an operation does not
follow that (the speed changes within the operation), so the probe is run
*inside* the operation instead: a ``SIGALRM`` every ``PERIOD_S`` interrupts
the measured code between two bytecodes and times ``probe()``.  Each period
of wall time then counts as ``PROBE_REF_S / probe time`` seconds, and

    scaled time = wall time * mean(PROBE_REF_S / sample)

reads as the time the operation would take at the speed at which the probe
takes ``PROBE_REF_S``.  ``PROBE_REF_S`` is the probe's time on the reference
host when nothing contends with it (the low end of about 10^5 samples), so
there a scaled time is close to the uncontended wall time.  The constant
must stay fixed: runs on one host are comparable only with the same one.

Signals reach only the main thread of this process.  While the sweep's two
pool workers run, this process waits for them and wakes every period to run
the probe on whichever CPU it is given, so its samples follow the speed of
both CPUs the workers share (and take about 2% of one of them).
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.002      # one probe per 2 ms of wall time
PROBE_REF_S = 36e-6   # probe time at the reference host's uncontended speed


def probe() -> int:
    """A fixed pure-Python loop of a few hundred bytecodes."""
    x = 1
    table = {}
    for i in range(300):
        x = (x * 31 + i) & 0xFFFF
        table[x & 63] = i
    return x


class SpeedMeter:
    """Samples the probe's time every ``PERIOD_S`` between start and stop."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; return the factor that scales wall time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.samples:
            return 1.0
        return statistics.fmean(PROBE_REF_S / s for s in self.samples)
