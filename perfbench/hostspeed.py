"""Host-speed sampling, for timings that do not drift with the host.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within minutes (see README.md, "Steadiness"). A child process therefore runs
a fixed probe, a miniature of the minimax engine, every ``INTERVAL`` seconds
of wall time from a timer signal, and records when each probe started and how
long it took. The probes share the process, the core and the moment with the
workload, so they slow down when the workload does for reasons outside the
program.

``Speed`` turns a window of a pass into normalized seconds: the window's wall
time minus the probes inside it, scaled by ``REF_PROBE_S`` over the mean
probe time around the window. A normalized second is a second on a host on
which the probe takes ``REF_PROBE_S``. The program's own work is never
scaled away, since the probe runs none of the program's code.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time

clock = time.perf_counter

INTERVAL = 0.02  # wall seconds between probes
REF_PROBE_S = 0.0004  # a probe's time on the reference host (2-vCPU Xeon KVM guest)
NEAREST = 32  # a window with fewer probes inside borrows the nearest ones

_BITS = 8
# (move, syndrome change) pairs of a small ring of checks
_MOVES = tuple((1 << q, (1 << q) | (1 << ((q + 1) % _BITS))) for q in range(_BITS))


def probe() -> int:
    """Exhaustive bottleneck search over 2^8 states; returns the table's sum."""
    best = bytearray(b"\xff" * (1 << _BITS))
    best[0] = 0
    heap = [(0, 0, 0)]
    while heap:
        maxe, state, syn = heapq.heappop(heap)
        if maxe != best[state]:
            continue
        for move, delta in _MOVES:
            ns = state ^ move
            nsyn = syn ^ delta
            ne = nsyn.bit_count()
            nmax = maxe if maxe >= ne else ne
            if nmax < best[ns]:
                best[ns] = nmax
                heapq.heappush(heap, (nmax, ns, nsyn))
    return sum(best)


class Sampler:
    """Runs ``probe`` from SIGALRM every ``INTERVAL`` s between start and stop."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame):
        t0 = clock()
        probe()
        self.samples.append((t0, clock() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> list:
        """Stops the timer and returns the samples, at least ``NEAREST`` of
        them: a short process (a set-up alone) is topped up right away."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < NEAREST:
            self._tick(None, None)
        return self.samples


class Speed:
    """Normalizes windows of one process's time with its probe samples."""

    def __init__(self, samples):
        samples = sorted(samples)
        if not samples:
            raise ValueError("no host-speed samples")
        self.starts = [s for s, _ in samples]
        self.secs = [d for _, d in samples]
        self.prefix = [0.0]
        for d in self.secs:
            self.prefix.append(self.prefix[-1] + d)

    def _mean_probe(self, lo: int, hi: int, a: float, b: float) -> float:
        if hi - lo < NEAREST:
            # widen to the NEAREST probes around the window
            while hi - lo < min(NEAREST, len(self.secs)):
                left = a - self.starts[lo - 1] if lo > 0 else float("inf")
                right = self.starts[hi] - b if hi < len(self.secs) else float("inf")
                if left <= right:
                    lo -= 1
                else:
                    hi += 1
        return (self.prefix[hi] - self.prefix[lo]) / (hi - lo)

    def raw(self, a: float, b: float) -> float:
        """Wall time of [a, b] without the probes that ran inside it."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return (b - a) - (self.prefix[hi] - self.prefix[lo])

    def norm(self, a: float, b: float) -> float:
        """Normalized seconds of [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        work = (b - a) - (self.prefix[hi] - self.prefix[lo])
        return work * REF_PROBE_S / self._mean_probe(lo, hi, a, b)
