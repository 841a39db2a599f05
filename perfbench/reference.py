"""Fixed reference kernel: the yardstick for ``wall_ref`` and ``cpu_ref``.

On a shared host the speed of one core drifts by 20-40% over minutes, and
``run()`` wall time drifts with it. ``run.py`` therefore times this kernel
in the set-up processes it interleaves with the measured runs and reports
the run times in units of the kernel's median time. The kernel does what
``run()`` spends its time on, at the 512^2 size of the largest workload
grids: 2-D FFTs and elementwise numpy passes over arrays that do not fit in
cache, plus a little interpreted Python. (A cache-resident 256^2 variant
swung twice as far as ``run()`` did under the same contention.) It uses
only numpy, never ``vortexlab``, so a change to the program cannot move
it; changing the kernel changes the unit of every ``_ref`` metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

N = 512
ROUNDS = 3
PY_ITERATIONS = 60_000
REPEATS = 5


def _once(a: np.ndarray, symbol: np.ndarray) -> float:
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        c = np.fft.ifft2(np.fft.fft2(a) / symbol)
        a = np.exp(-np.abs(c.real)) * np.cos(a) + 0.1 * np.sqrt(np.abs(a))
    s = 0.0
    for i in range(PY_ITERATIONS):
        s += (i % 7) * 0.5
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Median time of the kernel over ``REPEATS`` runs in this process."""
    a = np.random.default_rng(0).standard_normal((N, N))
    x = np.linspace(0.0, 1.0, N)
    symbol = 1.0 + np.add.outer(x * x, x * x)
    return statistics.median(_once(a, symbol) for _ in range(REPEATS))
