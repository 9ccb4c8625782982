"""Host-speed probe for a shared machine.

The benchmark host's speed swings by up to 1.65x in phases that last
seconds, most likely from other load on the same core, so a run's wall time says
as much about the phases it met as about the program.  While a run is timed,
`SpeedProbe` times a fixed pure-Python loop from a SIGALRM handler every
PERIOD_S seconds.  `reference_seconds(a, b)` then scales each stretch of
[a, b] between two probes by how long the loop took there against REF_S, and
leaves the probes' own time out: the time the same work would take on the
reference host at its fast phase.  The loop calls no package code, so a
change to the package moves the result and the loop's time does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
REF_S = 0.0005   # the loop's time on the reference host in its fast phase

# tuple indexing, sums and dict stores on a working set small enough to stay
# in cache: of the loops tried, the one whose time tracked the workloads'
# through the host's phases most closely
_TUPLES = [tuple(range(k, k + 8)) for k in range(256)]
_SEEN = dict.fromkeys(range(64), 0)


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop that allocates no containers."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1500):
        t = _TUPLES[(i * 40503) & 255]
        acc ^= sum(t) ^ (acc << 1 & 0xFFFF)
        _SEEN[t[0] & 63] = acc
    return time.perf_counter() - t0


def loop_seconds() -> float:
    """The probe loop's time now: the median of five runs."""
    return statistics.median(calibration_loop() for _ in range(5))


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _loop_s(self, k: int) -> float:
        """Loop time around probe k: the median of it and its neighbours."""
        lo, hi = max(0, k - 1), min(len(self.starts), k + 2)
        return statistics.median(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def reference_seconds(self, a: float, b: float) -> float:
        """Time spent outside the probes in [a, b], at reference speed."""
        if not self.starts:
            return b - a
        total = 0.0
        k = bisect.bisect_right(self.starts, a)  # first probe after a
        t = a
        while t < b:
            nxt = self.starts[k] if k < len(self.starts) else b
            seg_end = min(nxt, b)
            near = min(max(k - 1, 0), len(self.starts) - 1)
            total += (seg_end - t) * REF_S / self._loop_s(near)
            if k >= len(self.starts) or nxt >= b:
                break
            t = self.ends[k]
            k += 1
        return total

    def median_loop_s(self) -> float:
        if not self.starts:
            return 0.0
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def raw_seconds(self, a: float, b: float) -> float:
        """Time spent outside the probes in [a, b]."""
        inside = sum(max(0.0, min(e, b) - max(s, a))
                     for s, e in zip(self.starts, self.ends))
        return (b - a) - inside
