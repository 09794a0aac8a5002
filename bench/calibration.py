"""The host's speed, sampled between the operations of a pass.

The CPUs of a shared host change speed within a second, by up to a factor of
two, as other tenants come and go, and the speed drifts with the host's load
over minutes, so the median pass of one run can differ from the next run's by
a fifth.  A fixed kernel, written here and independent of invobs, is timed in
short chunks before every operation of a timed pass.  A pass's time is its
work times the host's mean slowness while it ran, and the mean chunk time
samples that slowness over the same stretch of time, so

    scaled_wall_s = mean pass wall time * REFERENCE_S / mean chunk time

is the pass time at the host speed at which one chunk takes ``REFERENCE_S``.
Means, not medians: a chunk is short enough to fall wholly in a fast or a slow
spell, so chunk times are bimodal and their median jumps between the modes.

The kernel does per-step work on single 3-vectors and 3x3 matrices in
Python, the kind of work whose speed tracks the host most closely for every
workload, the batched sweeps included.  The kernel and ``REFERENCE_S`` are
fixed: changing either changes the scale of every figure measured with them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.005

# Chunks timed before each operation: about 5% of the pass's time.
CHUNKS_PER_OP = {"single-runs": 4, "mc-sweep": 16, "verify-suite": 8}

_RNG = np.random.default_rng(20081004)
_VECS = _RNG.standard_normal((64, 3))
_MAT = _RNG.standard_normal((3, 3))


def chunk() -> float:
    acc = 0.0
    for i in range(100):
        v = _VECS[i % 64]
        w = np.cross(v, _VECS[(i + 1) % 64])
        acc += float(w @ v) + float((_MAT @ w)[0])
        x = 0.0
        for k in range(20):
            x += k * 0.5
        acc += x
    return acc


class Calibration:
    """Times ``CHUNKS_PER_OP[workload]`` chunks when called; keeps the times."""

    def __init__(self, workload: str):
        self._per_call = CHUNKS_PER_OP[workload]
        self.samples: list[float] = []
        chunk()  # warm-up

    def __call__(self):
        for _ in range(self._per_call):
            t0 = time.perf_counter()
            chunk()
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean chunk time of the run."""
        return REFERENCE_S / statistics.fmean(self.samples)
