"""Host-speed reference: a fixed pure-Python kernel timed between operations.

The benchmark shares a small host whose speed drifts by tens of percent
over tens of seconds, so it times this kernel at operation boundaries
(never inside a timed interval) and reports every timing as
``raw_s * NOMINAL_REF_S / mean(kernel samples)``.  The kernel calls no
``repro`` code and allocates no containers, so no change to the
program can move it.
"""

from __future__ import annotations

import time
from statistics import fmean
from typing import List, Sequence

#: Iterations of the kernel loop; about 2 ms on a 2-core x86-64 VM.
REF_ITERS = 10_000

#: Kernel seconds that normalized timings are scaled to.  A constant,
#: so normalized numbers from different runs and hosts share one scale.
NOMINAL_REF_S = 0.002


def ref_kernel() -> int:
    x, acc = 1, 0
    for i in range(REF_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc ^= x >> (i & 7)
    return acc


class HostClock:
    """Records kernel samples; converts raw seconds to nominal ones."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        ref_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def factor(samples: Sequence[float]) -> float:
        """Scale from raw to normalized seconds for ``samples``."""
        return NOMINAL_REF_S / fmean(samples)

    def mean(self) -> float:
        return fmean(self.samples)
