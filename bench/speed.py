"""How fast the host runs interpreted code, sampled while a child works.

A shared host runs the same child up to 1.6x slower while other tenants
load it; the load switches within milliseconds and its average drifts over
tens of seconds.  User CPU time moves as much as wall time.  So a child
samples the host's speed: while a SpeedProbe is entered, a SIGALRM handler
times PROBE_LOOPS turns of a fixed pure-Python loop every PROBE_EVERY_S.
The caller takes the handler's time (`spent_s`) out of what it measured,
and `calibrate` scales the rest to a host that runs the loop in
PROBE_REF_S.  For work too short to sample while it runs, `burst` takes
the samples back to back right after it.
"""

import signal
import statistics
import time

PROBE_LOOPS = 1_000
PROBE_EVERY_S = 0.004
# one probe loop on an idle 2.1 GHz Xeon vCPU, Python 3.11.7
PROBE_REF_S = 0.000060


class SpeedProbe:
    """CPython runs the handler between bytecodes, so a sample due during a
    long numpy call is taken when the call returns."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def sample(self, *_):
        t = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        self.samples.append(time.perf_counter() - t)
        self.spent_s += time.perf_counter() - t

    def burst(self, n: int) -> None:
        """n samples back to back, after a warm-up."""
        for _ in range(3):  # warm-up: the first turns run before specialising
            self.sample()
        self.samples.clear()
        for _ in range(n):
            self.sample()

    def __enter__(self):
        self.burst(0)
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.sample()

    def loop_s(self) -> float:
        """Mean loop time, leaving out samples over three times the median:
        the loop was preempted, and its time is in `spent_s` anyway."""
        median = statistics.median(self.samples)
        return statistics.fmean(x for x in self.samples if x <= 3 * median)

    def calibrate(self, seconds: float) -> float:
        return seconds * PROBE_REF_S / self.loop_s()
