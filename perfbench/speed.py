"""Times in reference seconds: measured time rescaled to a fixed interpreter speed.

The speed of a shared host drifts with what other tenants run: on a 2-core
Intel Xeon VM, pure-Python code ran up to 2x slower for tens of seconds at a
time, and that drift, not the program, made most of the run-to-run spread of
raw wall times.  So while a pass runs, a fixed kernel that uses none of the
package is timed every `SpeedProbe.interval` seconds (from a SIGALRM handler,
so long operations are sampled too).  A stretch of measured time between two
probes counts as its length times REFERENCE_S over the mean of the two probe
times; the probes' own time is left out.  Raw times are reported alongside.

The process's CPU time is no substitute: inside the VM the slow stretches
count as CPU time too.  Over ten seeds per workload on that VM, CPU-time
`op_p50_ms` spread (IQR over median) 0.35-0.39 on grid-relations and
serre-ladder, and `wall_s` 0.08-0.22, against the 0.25 bound; the detail file
of every run keeps the CPU time of each pass beside the other two.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
from fractions import Fraction
from time import perf_counter

# The kernel's time on a 2-core Intel Xeon VM under Python 3.11.7, when that
# VM ran at its full speed.
REFERENCE_S = 0.010


def kernel() -> None:
    """Exact row reduction of a fixed 14x14 rational matrix: the package's
    kind of work (Fractions, list churn), but none of its code."""
    rng = random.Random(5)
    n = 14
    m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1


class SpeedProbe:
    interval = 0.5

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel s)

    def probe(self, *_signal) -> None:
        """Time the kernel, best of two, with the garbage collector off so
        that the package's heap does not count."""
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                t0 = perf_counter()
                kernel()
                best = min(best, perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples.append((start, perf_counter(), best))

    @contextlib.contextmanager
    def running(self, timer: bool = True):
        """Probe now, every `interval` seconds while the block runs (unless
        `timer` is off), and at its end."""
        self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe) if timer else None
        if timer:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds in [t0, t1], leaving out the probes."""
        total = 0.0
        for (_, a_end, ka), (b_start, _, kb) in zip(self.samples, self.samples[1:]):
            lo, hi = max(t0, a_end), min(t1, b_start)
            if hi > lo:
                total += (hi - lo) * REFERENCE_S * 2 / (ka + kb)
        return total

    def raw(self, t0: float, t1: float) -> float:
        """Measured seconds in [t0, t1], leaving out the probes."""
        inside = sum(min(t1, end) - max(t0, start) for start, end, _ in self.samples
                     if min(t1, end) > max(t0, start))
        return t1 - t0 - inside

    def rescale(self, ops) -> None:
        for op in ops:
            op.seconds = self.scale(op.start, op.end)
