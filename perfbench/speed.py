"""A fixed kernel that tracks how fast the machine runs right now.

The small shared VMs this benchmark runs on change speed by up to 1.5x for
tens of seconds to minutes at a time, and every job slows with them.  This
kernel, a pure-Python integer loop and a few numpy passes over a small array,
is timed before every job and after the last one.  Each job's time is divided
by the mean of the kernel times on either side of it and multiplied by
REF_S: seconds at the speed where the kernel takes REF_S.  Over ten 20 s runs
per workload on a 2-vCPU Xeon VM, this cut the quartile spread of the
end-to-end times from 0.08-0.14 of their median (wall time) to 0.04-0.06.

A change to the program cannot move the kernel, so it moves these times
exactly as it moves wall time at a steady machine speed.  The raw wall times
are printed beside them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = 0.050       # about the kernel's time on that VM when it runs fast
LOOP = 400_000
ARRAY_PASSES = 100
_ARRAY = np.random.default_rng(0).random(20_000)


def kernel_s() -> float:
    """Wall time of the fixed kernel, in seconds."""
    t0 = perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i
    for _ in range(ARRAY_PASSES):
        y = np.sort(_ARRAY * 1.0001)
        np.cumsum(y)
        np.searchsorted(y, _ARRAY[:200])
    return perf_counter() - t0


def scaled(times: list, kernel: list) -> list:
    """`times[i]`, measured between `kernel[i]` and `kernel[i + 1]`, in reference seconds."""
    if len(kernel) != len(times) + 1:
        raise ValueError("need one kernel time before each time and one after the last")
    return [t * 2.0 * REF_S / (kernel[i] + kernel[i + 1]) for i, t in enumerate(times)]
