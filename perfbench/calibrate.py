"""Host-speed calibration for timings taken on a shared machine.

On a small VM that shares its host, the same code runs up to about 1.7x
slower in spells that last from seconds to minutes, and CPU time slows as
much as wall time.  A run that falls in such a spell reads slow on every
operation, so medians of raw wall times spread between runs by more than
any useful regression bound.

The benchmark therefore runs a fixed reference kernel before the first
timed call and after every timed call.  The kernel does the kinds of work
``lowdisc`` spends its time on: many small numpy calls from a Python loop,
as in the event-graph build, and a gather and segmented sum over arrays of
80k entries, as in a resample round.  Of the candidate kernels tried (these
two, an interpreter loop with string formatting, a sort), this pair
followed the host's speed best on all three workloads, the string-bound
``mtx_io`` included.  A
call of ``t`` seconds is reported as ``t * REFERENCE_S / k``, where ``k`` is
the mean time of the kernel runs within two runs of the call: seconds at the
host speed at which the kernel takes ``REFERENCE_S``.  Averaging four kernel
runs follows spells of a few seconds or more and smooths out the kernel's
own jitter.  The raw wall times and the kernel times are kept in the record
beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time in the fast state of a 2-vCPU Firecracker VM
# (Python 3.11, numpy 2.4); only the unit of the scaled times depends on it.
REFERENCE_S = 0.0075


class Calibrator:
    """The reference kernel, on fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.integers(0, 1000, 12_000)
        self._cols = rng.integers(0, 20_000, 80_000)
        self._vals = rng.random(80_000)
        self._signs = rng.choice([-1.0, 1.0], 20_000)
        self._ptr = np.arange(0, 80_000, 9)

    def _kernel(self) -> int:
        small, x = self._small, 0
        for i in range(0, small.size, 10):
            x += np.unique(np.concatenate([small[i:i + 10], small[i + 5:i + 15]])).size
        for _ in range(12):
            sums = np.add.reduceat(self._vals * self._signs[self._cols], self._ptr)
            x += int(np.count_nonzero(np.abs(sums) > 3.0))
        return x

    def run(self) -> float:
        """Seconds of one kernel run."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0


def scale(seconds: list[float], kernel_s: list[float]) -> list[float]:
    """Call ``i`` ran between kernel runs ``i`` and ``i + 1``; scale it by runs ``i - 1`` to ``i + 2``."""
    return [t * REFERENCE_S / statistics.fmean(kernel_s[max(i - 1, 0):i + 3])
            for i, t in enumerate(seconds)]
