"""The host's speed, read from a fixed kernel that shares no code with airfd.

The benchmark runs on shared machines whose speed drifts by up to 1.5x over
seconds to minutes, as neighbours load the same cores. A timed run therefore
also times this kernel between its rounds or plans, and reports each time
scaled to a reference speed: raw time x REFERENCE_KERNEL_S / (median of the
kernel times taken within WINDOW_S of it). The kernel mixes the kinds of work
airfd does (a dense LU, many small eigendecompositions, a matmul with tanh
and exp, and an interpreter loop), so a slower host slows both alike. A
change to airfd cannot change the kernel. The raw times are printed next to
the scaled ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np
import scipy.linalg

# Median kernel time on the machine the bounds were set on (Intel Xeon,
# 2 vCPUs, OpenBLAS 0.3.31 at 1 thread), at its faster speed.
REFERENCE_KERNEL_S = 1.75e-3
# Kernel times this close to an interval measure the speed it ran at.
WINDOW_S = 1.0
# The kernel runs at most this often, between rounds or plans (~4% of a run).
INTERVAL_S = 0.05


class Speed:
    """Kernel timings of one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        b = rng.standard_normal((200, 200))
        self._dense = b @ b.T + 200.0 * np.eye(200)
        self._small = [rng.standard_normal((6, 6)) for _ in range(40)]
        self._features = rng.standard_normal((300, 16))
        self._weights = rng.standard_normal((16, 32))
        self.times: list[float] = []
        self.samples: list[float] = []

    def _kernel(self) -> float:
        total = float(scipy.linalg.lu_factor(self._dense)[0][0, 0])
        for m in self._small:
            total += float(np.linalg.eigvalsh(m + m.T)[0])
        total += float(np.exp(np.tanh(self._features @ self._weights)).sum())
        for i in range(2000):
            total += i * 1e-9
        return total

    def sample(self) -> float:
        """Time the kernel if INTERVAL_S have passed since it last ran;
        returns the seconds spent."""
        began = perf_counter()
        if self.times and began - self.times[-1] < INTERVAL_S:
            return 0.0
        self._kernel()
        elapsed = perf_counter() - began
        self.times.append(began)
        self.samples.append(elapsed)
        return elapsed

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Scale from the host speed during [start, end] (the whole run when
        not given, or when no kernel ran near it) to the reference speed."""
        near = self.samples
        if start is not None:
            lo = bisect_left(self.times, start - WINDOW_S)
            hi = bisect_right(self.times, end + WINDOW_S)
            near = self.samples[lo:hi] or self.samples
        return REFERENCE_KERNEL_S / statistics.median(near)
