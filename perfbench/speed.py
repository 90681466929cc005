"""The machine's speed, measured next to each timed call.

On the 2-core VM the benchmark was built on, the same code runs up to about
1.5 times slower for seconds to minutes at a time, as other guests load the
host. That swing is wider than any bound a comparison can use. A short probe
run before and after each timed call measures the speed of that moment, and
the call's time is scaled by it:

    reference seconds = measured seconds * probe reference time / probe time

The probe is the geometric mean of two timings, so that it follows both kinds
of work the workloads do: a pure-Python loop (interpreter-bound, like the
search) and n-by-n matrix products (array-bound, like the training). The
probe is the benchmark's own code, so a change to tspheat cannot change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

PY_LOOPS = 40_000
# about 8 million multiply-adds of n-by-n products per probe, at least 2
MATMUL_FLOPS = 8_000_000


class Probe:
    def __init__(self, n: int):
        self.a = np.random.default_rng(n).random((n, n))
        self.reps = max(2, MATMUL_FLOPS // n**3)

    def __call__(self) -> float:
        """Seconds of one probe."""
        t0 = time.perf_counter()
        s = 0
        for i in range(PY_LOOPS):
            s += i * i % 7
        t1 = time.perf_counter()
        for _ in range(self.reps):
            b = self.a @ self.a
            np.exp(-b, out=b)
        t2 = time.perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1))
