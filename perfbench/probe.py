"""A reference kernel that tells how fast the machine ran during a run.

On a machine shared with other tenants, interpreter-bound code runs either
at full speed or ~2x slower, flipping every ~0.1-10 s, and the share of
slow time drifts over minutes; at times the machine stays slow for minutes.
A run's timings then follow the slow share of the minutes it ran in.

Each process of a run calls this kernel CALLS times at its start and after
each timed phase (`workload.py`), and `run.py` multiplies the samples by

    scale = (REFERENCE_S / mean time of the kernel calls) ** exponent

where REFERENCE_S is the kernel's call time in the fast state of the 2-vCPU
reference VM, and the exponent is how strongly the phase slows with the
kernel (`run.py`). So a run reads roughly as if the machine had stayed in
its fast state. A mean, not a low quantile: a phase of several seconds
averages over both states, and so does the mean of many short calls.

The kernel uses numpy and plain Python only, never fdnet, so no change to
fdnet can move it. Its work is like the workloads' dispatch-bound work:
numpy calls on tiny arrays and a Python two-pointer merge. It allocates no
objects the cyclic garbage collector tracks, so it never triggers a
collection of the program's garbage.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CALLS = 20  # per probe; one call takes ~1.8 ms at full speed
REFERENCE_S = 0.0018

_rng = np.random.default_rng(0)
_TINY = _rng.standard_normal((4, 3))
_LEFT = sorted(_rng.standard_normal(96).round(2).tolist())
_RIGHT = sorted(_rng.standard_normal(96).round(2).tolist())


def _kernel() -> float:
    a = _TINY
    for _ in range(300):
        a = (a + _TINY) * 0.5 - _TINY.reshape(3, 4).T
        a = a / (1.0 + abs(a).sum())
    i = j = 0
    gap = 0.0
    while i < len(_LEFT) and j < len(_RIGHT):
        for _ in range(8):
            gap = max(gap, abs(i - j) / 96.0)
        if _LEFT[i] <= _RIGHT[j]:
            i += 1
        else:
            j += 1
    return float(a.sum()) + gap


def probe() -> list[float]:
    """Times of CALLS kernel calls, in seconds."""
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(times: list[float], exponent: float = 1.0) -> float:
    """Factor from measured seconds to reference seconds: REFERENCE_S over
    the mean of the kernel's call times, to the power `exponent` for code
    that slows less than the kernel does."""
    return (REFERENCE_S / statistics.fmean(times)) ** exponent
