"""Machine-speed probe for normalising end-to-end times.

Shared VMs change speed by tens of percent within minutes: on the 2-vCPU
x86-64 VM this benchmark was written on, one fixed solver call took between
0.26 s and 0.57 s within a single minute, and the same cli pass took 1.1 s
in one run and 0.67 s four minutes later.  The probe times a fixed
pure-Python kernel that does not use kpacking, in slices of about 1 ms spread
over the run's timed section.  End-to-end times of the run, set-up included,
are multiplied by
``REFERENCE_KERNEL_S / median slice time``: they are the seconds the run
would have taken at the speed where one slice takes ``REFERENCE_KERNEL_S``.
A slower library still reads slower, because the kernel does not change.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# the median slice time on the VM above, so that scaled times stay close to
# the seconds measured there
REFERENCE_KERNEL_S = 0.00085
PROBE_EVERY_S = 0.1


def kernel() -> int:
    """Fixed interpreter work in the library's mix: bit loops over ints,
    tuples in a dict, and Fraction arithmetic."""
    acc = 0
    table = {}
    for i in range(400):
        m = (i * 2654435761) & 0xFFFFF
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
        table[(i & 63, acc & 15)] = tuple(range(i & 7))
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(1, i)
    return acc + len(table) + f.numerator % 3


def time_kernel() -> float:
    # the collector would make the slice depend on the library's heap
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = time.perf_counter() + PROBE_EVERY_S

    def tick(self) -> float:
        """Time one slice if one is due; return the seconds it took."""
        now = time.perf_counter()
        if now < self._due:
            return 0.0
        self.samples.append(time_kernel())
        done = time.perf_counter()
        self._due = done + PROBE_EVERY_S
        return done - now

    def scale(self) -> float:
        """Factor taking a time measured during this run to the reference
        speed.  Slices are timed between ops, where caches hold library data;
        a run too short for any is probed now."""
        samples = self.samples or [time_kernel() for _ in range(10)]
        return REFERENCE_KERNEL_S / statistics.median(samples)
