"""Machine-speed calibration by sampling a fixed kernel during each call.

The benchmark machine's speed drifts: the same pure-Python loop takes
up to a third longer from one second to the next, and set medians move
by ~9% between runs minutes apart. A kernel timed between calls tracks
this poorly, because the speed changes within a call. So while a timed
call runs, a SIGALRM timer interrupts it every PERIOD_S and the handler
times one run of a fixed kernel (``probe``) in the same thread. The
call's time, less the time its probes took, is then rescaled by

    REFERENCE_S * mean(1 / probe time, over the probes during the call)

so that it reads as seconds on a machine where the probe takes
REFERENCE_S. The probes are spread evenly in time, so the mean of their
speeds (not of their times) is the machine's mean speed over the call.
The kernel is benchmark code, never program code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# median probe time on the 2-core Xeon the benchmark was written on
# (see README.md); a constant, never re-measured
REFERENCE_S = 0.0038
PERIOD_S = 0.05
# An import follows the probe's speed only in part: much of it is file
# and C-extension work that the pure-Python probe does not track. Over
# 79 fresh-process imports taken in fast and slow stretches, log(import
# time) fell with log(probe speed) at a slope of -0.78 (r = -0.98), so
# set-up time is rescaled by the speed ratio to this power; at the full
# power the fast stretches read ~10% slower than the slow ones.
SETUP_EXPONENT = 0.8

_rng = random.Random(20250113)
_NODES = tuple(range(70))
_ADJ = {
    u: tuple(sorted({(v, _rng.randint(1, 9)) for v in _rng.sample(_NODES, 20) if v != u}))
    for u in _NODES
}


def probe() -> float:
    """Dijkstra from 12 sources of a fixed 70-node weighted graph (pure Python).

    The program's per-song hot path is this kind of dict, heap and
    float work, so the kernel slows down when the program does.
    """
    acc = 0.0
    for source in _NODES[:12]:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        acc += sum(1.0 / d for node, d in dist.items() if node != source)
    return acc


@dataclass
class Sampler:
    """Probe intervals (start, end) taken while timed calls ran."""

    probes: list[tuple[float, float]] = field(default_factory=list)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter()))

    def timed(self, fn: Callable[..., Any], *args) -> tuple[Any, float, float]:
        """Run fn(*args); returns (its result, seconds less probe time, mean probe speed in 1/s)."""
        first = len(self.probes)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        mine = [end - begin for begin, end in self.probes[first:]]
        if not mine:  # a call shorter than one period: probe right after it
            self._on_alarm(signal.SIGALRM, None)
            return result, elapsed, 1 / (self.probes[-1][1] - self.probes[-1][0])
        return result, elapsed - sum(mine), sum(1 / t for t in mine) / len(mine)


def scaled(seconds: float, probe_speed: float, exponent: float = 1.0) -> float:
    """Seconds measured at a mean probe speed, as reference seconds."""
    return seconds * (REFERENCE_S * probe_speed) ** exponent
