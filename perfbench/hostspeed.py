"""Host speed probe: a fixed piece of work, timed between rounds.

The benchmark's host is shared. Other tenants load its cores, and the same
process runs 30-50% slower for seconds to minutes at a time. The drift
slows the simulator and this probe alike, so a run times the probe about
every PROBE_EVERY_S of host time and scales each host time it measures by

    REFERENCE_S / (median probe time around the measurement).

The result reads as the host time on the reference host at the probe's
reference speed. The probe uses only the standard library and numpy, never
offloadsim: a change to the simulator moves the scaled times in full.
"""
from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

REFERENCE_S = 0.002  # the probe's time on the reference host in a calm period
PROBE_EVERY_S = 0.1

_MATRIX = np.random.default_rng(7).standard_normal((48, 48)) / 8.0


def kernel() -> float:
    """Interpreter work like the simulator's (heap, dicts, small objects),
    then small matmuls like the learner's."""
    rng = random.Random(7)
    heap, table = [], {}
    for i in range(800):
        key = rng.random()
        heapq.heappush(heap, (key, i))
        table[i] = [key, str(i)]
    acc = 0.0
    while heap:
        key, i = heapq.heappop(heap)
        acc += table.pop(i)[0]
    x = _MATRIX
    for _ in range(60):
        x = np.tanh(_MATRIX @ x)
    return acc + float(x[0, 0])


class HostSpeed:
    """Probe times of one process, in the order they were taken."""

    def __init__(self, every_s: float = PROBE_EVERY_S):
        self.every_s = every_s
        self.samples: list[float] = []
        self.due = 0.0
        kernel()  # the first call warms the allocator and numpy; not kept

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.due = t1 + self.every_s

    def tick(self) -> None:
        """Probe if PROBE_EVERY_S of host time has passed since the last probe."""
        if time.perf_counter() >= self.due:
            self.probe()

    def last(self) -> int:
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor for host time measured between probes k and k + 1: the
        reference over the median of probes k - 1 to k + 2."""
        return REFERENCE_S / statistics.median(self.samples[max(0, k - 1) : k + 3])

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
