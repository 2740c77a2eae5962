"""Operation timing scaled to a reference host speed.

On a shared 2-vCPU VM (Intel Xeon, Python 3.11) the same Python code ran
up to 1.8x slower in some phases than in others, phases lasting from a
tenth of a second to minutes.  Every raw time is therefore divided by
the mean time of kernel(), a fixed piece of Python in the package's
style (frozen dataclasses, set closure, bitset BFS), sampled in the same
process during and around the operation, and multiplied by NOMINAL_S.
A reported time is the time the operation would take on a host where
kernel() takes NOMINAL_S.  The kernel is the benchmark's own code, so a
change to the package moves the reported times in full.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.005
# Seconds between kernel samples while a Timer is active.
SAMPLE_S = 0.1


@dataclass(frozen=True, order=True)
class _Element:
    exp: int
    flip: bool


def _mul(g, h, n):
    m = 2 * n
    if not g.flip:
        return _Element((g.exp + h.exp) % m, h.flip)
    if not h.flip:
        return _Element((g.exp - h.exp) % m, True)
    return _Element((g.exp - h.exp + n) % m, False)


def kernel():
    """Seconds taken by a fixed mix of subgroup closures and bitset BFS."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    try:
        for n in range(6, 17):
            gens = [_Element(i, False) for i in range(2, 2 * n, 4)] + [_Element(0, True)]
            members, frontier = {_Element(0, False)}, [_Element(0, False)]
            while frontier:
                g = frontier.pop()
                for s in gens:
                    prod = _mul(g, s, n)
                    if prod not in members:
                        members.add(prod)
                        frontier.append(prod)
            sorted(members)
            rows = [sum(1 << (i + j) % (4 * n) for j in range(0, 4 * n, 3))
                    for i in range(4 * n)]
            seen = frontier_bits = 1
            while frontier_bits:
                nxt, x = 0, frontier_bits
                while x:
                    low = x & -x
                    nxt |= rows[low.bit_length() - 1]
                    x ^= low
                frontier_bits = nxt & ~seen
                seen |= frontier_bits
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timer:
    """Times the operations of one pass and scales them to reference speed.

    While the timer is active, SIGALRM runs kernel() every SAMPLE_S
    seconds between bytecodes, so the speed is sampled inside long
    operations too.  The sample's own time is taken out of the operation
    it interrupted, and on_sample(seconds) is told of it.  An operation
    is scaled by the mean kernel time of the samples within SAMPLE_S of
    it; on exit, .times holds the scaled times in order.
    """

    def __init__(self, on_sample=None):
        self.times = []
        self.raw_s = 0.0
        self._ops = []  # (start, end, raw seconds)
        self._samples = []  # (start, end, kernel seconds)
        self.stolen_s = 0.0  # seconds spent in samples so far
        self._on_sample = on_sample

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        kernel_s = kernel()
        end = perf_counter()
        self._samples.append((start, end, kernel_s))
        self.stolen_s += end - start
        if self._on_sample is not None:
            self._on_sample(end - start)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        overall = statistics.fmean(k for _, _, k in self._samples)
        for start, end, raw in self._ops:
            near = [k for s, e, k in self._samples
                    if e >= start - SAMPLE_S and s <= end + SAMPLE_S]
            self.times.append(raw * NOMINAL_S / (statistics.fmean(near) if near else overall))
            self.raw_s += raw

    @contextmanager
    def op(self):
        stolen = self.stolen_s
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._ops.append((start, end, end - start - (self.stolen_s - stolen)))

    @property
    def factor(self):
        """Mean scale applied: scaled time over raw time."""
        return sum(self.times) / self.raw_s if self.raw_s else 1.0
