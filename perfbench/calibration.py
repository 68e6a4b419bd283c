"""Machine-speed calibration, so that timings read in reference seconds.

The speed of a shared virtual machine drifts: on the 2-vCPU machine where
the bounds in BENCHMARK.json were set, a fixed ``optimize_scheme`` loop took
anywhere from 0.37 s to 0.96 s, in phases that last from seconds to
minutes. The drift moves every timing of a run together, so its run-to-run
spread was 0.2-0.3 of the median, wider than any bound the benchmark may
set.

A fixed calibration kernel is therefore timed between operations. It mixes
4x4 NumPy algebra with pure-Python arithmetic, like the program's own
work, and it never calls entlqg, so no change to the program can move it.
Each operation's time is scaled by CAL_REF_S over the median of the kernel
times measured just before and just after it. The result is in reference
seconds: seconds on a machine that runs the kernel in CAL_REF_S. The raw
seconds are kept in the report.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

CAL_REF_S = 0.05
CAL_EVERY_S = 1.0
CAL_SHARE = 0.05
_NUMPY_STEPS = 1500
_PYTHON_STEPS = 150_000


def kernel() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the fixed calibration work."""
    A = np.arange(16.0).reshape(4, 4) / 16.0
    V = np.eye(4)
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(_NUMPY_STEPS):
        V = 0.5 * (A @ V + V @ A.T) / 4.0 + np.eye(4)
        np.linalg.eigvals(V)
    acc, table = 0.0, {}
    for i in range(_PYTHON_STEPS):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
    return time.perf_counter() - w0, time.process_time() - c0


def reference_factor(runs: list) -> tuple[float, float]:
    """Factors that turn wall and CPU seconds into reference seconds."""
    return (CAL_REF_S / statistics.median(r[0] for r in runs),
            CAL_REF_S / statistics.median(r[1] for r in runs))


class Stopwatch:
    """Times operations between blocks of kernel runs.

    A block runs before any operation that starts CAL_EVERY_S or more after
    the previous block, and once at the end. It repeats the kernel until it
    has lasted CAL_SHARE of the time since the previous block, so that a
    long operation is bracketed by as many kernel runs as a series of short
    ones. An operation is scaled by the median kernel time of the blocks
    just before and just after it.
    """

    def __init__(self):
        self.blocks = []    # kernel (wall, cpu) runs of each block, in order
        self.records = []   # (wall s, cpu s, index of the block just before)
        self._last = -math.inf

    def calibrate(self):
        start = time.perf_counter()
        budget = CAL_SHARE * (start - self._last) if self.blocks else 0.0
        runs = [kernel()]
        while time.perf_counter() - start < budget:
            runs.append(kernel())
        self.blocks.append(runs)
        self._last = time.perf_counter()

    def time(self, fn):
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.calibrate()
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        self.records.append((time.perf_counter() - w0, time.process_time() - c0,
                             len(self.blocks) - 1))
        return result

    def finish(self) -> list:
        """Run the closing block; return (wall, cpu) of each operation in reference seconds."""
        self.calibrate()
        out = []
        for wall, cpu, k in self.records:
            fw, fc = reference_factor(self.blocks[k] + self.blocks[k + 1])
            out.append((wall * fw, cpu * fc))
        return out
