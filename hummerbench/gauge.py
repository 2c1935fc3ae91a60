"""A machine-speed gauge that scales measured times to one reference speed.

On a shared virtual machine each CPU's speed flips between a fast and a
slow state (a fixed pure-Python loop takes ~1.6x longer in the slow one),
each CPU on its own, for fractions of a second to minutes at a time.  The
slow state costs process CPU time as much as wall time, so it is not lost
scheduling, and no statistic of the program's own timings removes it.  A
run therefore pins itself and everything it starts to one CPU, times
:func:`kernel`, a fixed loop that does not touch the program, on that CPU
between its timed operations, and scales every timed sample as::

    seconds * REFERENCE_S / mean(kernel seconds just before and just after it)

that is, to the seconds the operation takes on a CPU that runs the kernel
in :data:`REFERENCE_S`.  A change to the program moves its timings and not the
kernel's, so it shows in full; a slow spell of the CPU moves both.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from hummerbench.stats import median

#: Kernel seconds of the nominal CPU the reported times are scaled to
#: (about the kernel's time on a CPU of the recording machine in its fast state).
REFERENCE_S = 0.022


def kernel() -> int:
    """An interpreter-bound loop of integer arithmetic and dict stores.

    Of the loops tried, its slowdown in the slow state tracked the
    pipeline's most closely: string building slows down more, random memory
    access less.
    """
    total = 0
    slots = {}
    for number in range(150_000):
        total += number * number % 7
        slots[number % 1000] = total
    return total


def scale(readings: Sequence[float]) -> float:
    """The factor from a run's measured seconds to seconds at the reference speed."""
    return REFERENCE_S / median(readings)


def scaled(samples: Sequence[Tuple[float, int]], readings: Sequence[float]) -> List[float]:
    """Each ``(seconds, index)`` sample, timed after reading *index*, at the reference speed.

    The speed of a sample is the mean of the readings on either side of it
    (the last samples of a run may have only the one before).
    """
    result = []
    for seconds, index in samples:
        around = readings[index:index + 2]
        result.append(seconds * REFERENCE_S * len(around) / sum(around))
    return result


class Gauge:
    """Kernel timings of one run, read between its timed operations."""

    def __init__(self) -> None:
        self.readings: List[float] = []

    def read(self) -> int:
        """Time the kernel once; returns the index that marks the samples timed next."""
        started = time.perf_counter()
        kernel()
        self.readings.append(time.perf_counter() - started)
        return len(self.readings) - 1
