"""Host speed probes, for reporting item times at a reference speed.

On the 2-vCPU host this benchmark was built on, the same Python code runs up
to 1.6x faster or slower for stretches of a second to several minutes, in
CPU time as well as in wall time. Raw medians of 35 s runs then moved by up
to a third between runs. A probe is a fixed loop written in the program's
style (small-integer Fraction elimination, integer arithmetic, dict and
tuple churn, polynomial term-dict products) that takes about 2 ms.

While an item runs, SIGPROF fires every PROBE_PERIOD_S of CPU time and
runs one probe inside it. The host's speed during an item is the median of
its own probes, topped up to WINDOW probes with the latest probes of the
items before it, so short items are judged by the last second or so. Only
in-item probes are used: a probe run between items, with its code and data
still in cache, took about 0.6 times as long as one that interrupts the
program. The item's time at the reference speed is its elapsed time minus
the time its probes took, times REFERENCE_PROBE_S over that median.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from fractions import Fraction
from statistics import median

PROBE_PERIOD_S = 0.1
WINDOW = 10
# Typical in-item probe time on the host where baseline.json was taken.
REFERENCE_PROBE_S = 0.002

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5) for j in range(6)] for i in range(5)]
_LEFT = {(i, j, 0, 1): i - j for i in range(4) for j in range(3)}
_RIGHT = {(0, i, j, 1): i + j + 1 for i in range(4) for j in range(3)}


def probe_s() -> float:
    """Seconds taken by one fixed probe loop."""
    started = time.perf_counter()
    rows = [row[:] for row in _MATRIX]
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inverse = 1 / rows[k][k]
        rows[k] = [v * inverse for v in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][k]:
                factor = rows[i][k]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    total = 0
    for i in range(4000):
        total = (total + i * i) % 1000003
    counts = {}
    for i in range(400):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + 1
        tuple(x for x in key)
    product = {}
    for ma, ca in _LEFT.items():
        for mb, cb in _RIGHT.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            product[key] = product.get(key, 0) + ca * cb
    return time.perf_counter() - started


def at_reference_speed(seconds, probes) -> float:
    return seconds * REFERENCE_PROBE_S / median(probes)


class Sampler:
    """Probes the host's speed during each item."""

    def __init__(self):
        self.recent = deque(maxlen=WINDOW)
        self.all = []
        self._during = []
        self._spent = 0.0

    def _on_prof(self, signum, frame):
        started = time.perf_counter()
        self._during.append(probe_s())
        self._spent += time.perf_counter() - started

    def start(self):
        self._during, self._spent = [], 0.0
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        """Disarm; returns the seconds the item's probes took."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        return self._spent

    def scale(self, seconds) -> float:
        """`seconds` (probe time removed) of the item just stopped, at the
        reference speed."""
        missing = WINDOW - len(self._during)
        probes = (list(self.recent)[-missing:] if missing > 0 else []) + self._during
        self.recent.extend(self._during)
        self.all += self._during
        return at_reference_speed(seconds, probes) if probes else seconds
