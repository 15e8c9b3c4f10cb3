"""The host's speed, sampled while the benchmark measures.

The benchmark runs on a few cores of a shared host.  There the same
pure-Python work takes up to twice as long from one second to the next
(other tenants share the cores and caches), and the average drifts by a
fifth over minutes; a wall time taken alone measures the host as much as
the program.  So while a run measures, a SIGALRM timer interrupts the
process every PERIOD_S seconds of wall time and times one fixed
calibration unit of ``Fraction`` and dict work, the kind of work
vertexscreen does.  A time measured over an interval is then reported at
the reference speed, the speed at which one unit takes REF_UNIT_S:

    scaled = (raw - calibration time inside) * REF_UNIT_S * mean(1 / unit)

where the mean runs over the units timed inside the interval.  The samples
are evenly spaced in wall time, so the mean of 1 / unit is the host's
average speed over the interval, and the scaled time is the work done,
counted in reference seconds.  The calibration costs about 1.5% of the
run; it is taken out of every interval it falls in.
"""

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
REF_UNIT_S = 0.0003     # one unit on a quiet 2.1 GHz Xeon vCPU, Python 3.11


def calibration_unit():
    """Fixed work of the kind vertexscreen does: Fraction arithmetic and
    dict stores keyed by small tuples (REF_UNIT_S on a quiet host)."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 41):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i + 1)
        table[(i, i % 3)] = acc
    return len(table)


class HostSpeed:
    """Samples the calibration unit on a timer between start and stop."""

    def __init__(self):
        # (wall start, wall s, cpu s) of each timed unit
        self.samples = []

    def start(self):
        self._sample(None, None)    # so that scale always has a sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame):
        # no garbage collection inside a unit: the program's garbage would
        # be collected on the unit's time and taken out of the program's
        collect = gc.isenabled()
        gc.disable()
        w0, c0 = time.perf_counter(), time.process_time()
        calibration_unit()
        self.samples.append((w0, time.perf_counter() - w0,
                             time.process_time() - c0))
        if collect:
            gc.enable()

    def scale(self, w0, w1, c0, c1):
        """(wall s, cpu s, speed factor) of the interval from (w0, c0) to
        (w1, c1), both read off perf_counter and process_time: the raw
        times less the calibration inside, times the speed factor.  An
        interval with no sample inside takes the nearest sample's speed."""
        inside = [s for s in self.samples if w0 <= s[0] < w1]
        wall = w1 - w0 - sum(s[1] for s in inside)
        cpu = c1 - c0 - sum(s[2] for s in inside)
        used = inside or [min(self.samples, key=lambda s: abs(s[0] - w0))]
        factor = REF_UNIT_S * sum(1.0 / s[1] for s in used) / len(used)
        return wall * factor, cpu * factor, factor
