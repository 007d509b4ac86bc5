"""The machine's current speed, from a fixed kernel that shares no code with
xyent.

Other tenants of a shared machine change its speed by up to 1.7x over
seconds to minutes, and process CPU time slows with wall time (the slowdown
is in the shared hardware, not in scheduling).  A fixed kernel timed next to
the program's own work slows with it: over 90 s in which a Python loop's
time swung 1.7x, its ratio to a general eigensolve's stayed within 6%.  The
benchmark times this kernel between ops and reports times scaled by
REFERENCE_S over the kernel's local median time, that is, in seconds of a
machine running the kernel in REFERENCE_S (see run.py for the ops it leaves
in wall time).
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# about the kernel's median time on the machine the reference figures in
# README.md come from; a constant, so scaled times compare across runs
REFERENCE_S = 0.004

_MATRIX = np.random.default_rng(12345).standard_normal((72, 72))


def _interpreter_loop(n: int = 20000) -> float:
    s, d = 0.0, {}
    for i in range(n):
        s += i * 0.5
        d[i & 255] = s
    return s


def kernel_s() -> float:
    """Seconds for one run of the kernel: an interpreted loop, then the
    eigenvalues of a general real matrix, about half the time each."""
    t0 = time.perf_counter()
    _interpreter_loop()
    np.linalg.eigvals(_MATRIX)
    return time.perf_counter() - t0


def local_scale(samples: list[tuple[float, float]], start: float, end: float,
                window_s: float) -> float:
    """REFERENCE_S over the median kernel time among `samples` (sorted
    (time, seconds) pairs) taken within `window_s` of [start, end]; the
    nearest three samples if the window holds fewer."""
    times = [t for t, _ in samples]
    lo, hi = bisect_left(times, start - window_s), bisect_right(times, end + window_s)
    if hi - lo < 3:
        mid = bisect_left(times, (start + end) / 2.0)
        lo = max(0, min(mid - 1, len(samples) - 3))
        hi = min(len(samples), lo + 3)
    return REFERENCE_S / statistics.median(dt for _, dt in samples[lo:hi])
