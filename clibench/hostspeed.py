"""Host-speed calibration: a fixed kernel timed between jobs.

The benchmark host is shared, and its speed drifts by tens of per cent
from one minute to the next.  Timing this fixed kernel between jobs
tracks that drift, and each job time is scaled by ``REFERENCE_S`` over the
median kernel time around the job: times are reported in seconds of a host
on which the kernel takes ``REFERENCE_S``.  A change to ``qconstel`` does
not touch the kernel, so it moves scaled times exactly as it moves raw
ones.  Like the jobs, the kernel mixes interpreter work with small complex
matrix products.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0085  # the kernel's median time on the 2-core host of the baseline
EVERY_S = 0.5
WINDOW = 2  # samples on each side of a job that set its scale


def kernel() -> float:
    a = np.exp(1j * np.linspace(0.0, 1.0, 256)).reshape(16, 16)
    total = 0.0
    for _ in range(600):
        total += float(np.abs(np.trace(a @ a.conj().T)))
        for j in range(60):
            total += j * 0.5
    return total


class HostSpeed:
    """Kernel times taken at least ``EVERY_S`` apart."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> int:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end
        return len(self.samples) - 1

    def tick(self) -> int:
        """Index of the latest sample, taking a new one if the last is old."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor that turns a time measured near sample ``k`` into reference seconds."""
        window = self.samples[max(0, k - WINDOW): k + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)
