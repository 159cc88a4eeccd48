"""The reference kernel: fixed work that tracks how fast the machine is right now.

On a shared host the same lanton step can take 1.6 times longer from one
second to the next, because other tenants load the cores and caches. The
benchmark therefore runs this kernel right before and after every timed
segment and reports the segment's time as a multiple of the kernel's time
at that moment, scaled by ``REF_NS``. A slower machine slows both alike and
the ratio stays put; a slower lanton raises only the segment.

The kernel is a small mix of the work lanton does: SVDs and products of
small matrices (dual norms, Newton-Schulz), a tall product with a tanh (the
MLP's value_grad) and formatting and parsing floats (CSV writes and reads).
It never touches lanton, so no change to lanton can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal duration of one kernel call, in ns. Close to the kernel's least
# time on the 2-vCPU machine that defined the benchmark (10.7 ms), so
# normalised values read about like that machine's wall-clock times when it
# is not slowed by other tenants.
REF_NS = 10_000_000

_rng = np.random.default_rng(0)
_A8 = _rng.standard_normal((8, 8))
_A64 = _rng.standard_normal((64, 64))
_X = _rng.standard_normal((1024, 32))
_W = _rng.standard_normal((32, 128))
_VALUES = _rng.standard_normal(3000)


def measure() -> int:
    """Run the kernel once; return its wall time in ns."""
    t0 = time.perf_counter_ns()
    for _ in range(40):
        np.linalg.svd(_A8)
        _A8 @ _A8.T
    for _ in range(2):
        np.linalg.svd(_A64, compute_uv=False)
        _A64 @ _A64
    for _ in range(6):
        h = np.tanh(_X @ _W)
        h.T @ h
    text = "\n".join(f"{v:.17g}" for v in _VALUES)
    sum(float(x) for x in text.split("\n"))
    return time.perf_counter_ns() - t0
