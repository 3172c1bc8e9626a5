"""The box's speed, sampled while the benchmark runs.

The box this runs on changes speed under the benchmark: the same fixed work
takes 10-50 % more CPU time for bursts of a second to half a minute, on one
core or both, and everything CPU-bound slows with it.  So every process of
the benchmark — the generator and each replica worker — runs a fixed kernel
(:func:`kernel`) every ``TICK_S`` and keeps the samples; ``perf.metrics``
cuts the window into slices, scales each slice's times and rates by how fast
the kernel ran *in that slice* relative to ``KERNEL_REFERENCE_S``, and reports
the median slice.
"""

from __future__ import annotations

import statistics
import struct
import zlib
from time import thread_time

#: Seconds between kernel samples in each process (about 1 % of a core).
TICK_S = 0.05
#: CPU seconds :func:`kernel` takes on the box the first baseline was
#: measured on.  It only fixes the scale: every run of every commit divides
#: by the same constant.
KERNEL_REFERENCE_S = 0.00043

_BUFFER = bytes(range(256)) * 64


def kernel() -> float:
    """CPU seconds a fixed piece of work takes right now: a quarter
    interpreter arithmetic, three quarters packing, copying and checksumming
    4 kB buffers.  Chosen in sizing because the slow-downs hit memory-bound
    work harder than arithmetic, as they hit the replicas; this mix tracked
    ``sock_small_update`` best of the ones tried.  It touches nothing under
    ``src/``, so no change to the program moves it."""
    began = thread_time()
    acc = 0
    for i in range(2_500):
        acc += i * i % 7
    for i in range(180):
        frame = struct.pack("<IQd", i, i * 7, 1.5) + _BUFFER[i:i + 4000]
        zlib.crc32(frame)
        struct.unpack_from("<IQd", frame)
    return thread_time() - began


def speed_factor(kernel_s: list[float]) -> float:
    """How much slower than the reference the box ran (1.0 = reference).
    The mean, not the median: the slow-downs come in bursts shorter than a
    slice, and the work in a slice pays for every one of them."""
    return statistics.mean(kernel_s) / KERNEL_REFERENCE_S
