"""Reads how fast this CPU runs right now, so times can be compared across runs.

On a shared machine the same Python code runs up to 40% slower for minutes
at a time, for two reasons.  Neighbours take the core away, so the process
waits for it; and while the process runs, a neighbour on the sibling
hardware thread or in the shared caches slows every instruction.  Op times
are therefore taken in CPU seconds of the process doing the work, which
leave out the waits, and divided by the slowdown of a fixed probe timed
next to them, in CPU seconds too, against REFERENCE_S.  A change to the
program moves its ops and not the probe, so it still shows; a busy host
moves both, and cancels out.

The probe is a loop of object construction with a sort and a dict.  Timed
back to back with library calls and the oracle's filtering passes in one
process, through a fast and a slow spell of the host, their ratio to it
moved by 0-4% (library 0%, oracle 3-4%); an integer-arithmetic loop slows
far more than the package in slow spells, and against it the ratio moved
by 10-20%.  In the benchmark's workers, where the probe interrupts the op,
it takes out about two thirds of a spell's slowdown of the memory-heavy
``verify_all`` sweep (raw CPU time 29% up, scaled time 9.5% up).  The
garbage collector is off while the probe runs, so collection costs the
program causes stay in the program's times.
Sampler takes another measure too: run.py scales process starts by a
reference interpreter start.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

clock = time.perf_counter
cpu_clock = time.process_time

# The probe's typical time on the machine the baseline was recorded on.
REFERENCE_S = 0.0006
PROBE_ITEMS = 1200
INTERVAL_S = 0.1
WINDOW_S = 1.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: tuple) -> None:
        self.key = key
        self.value = value


def probe() -> float:
    """CPU seconds the probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = cpu_clock()
        items = [_Item(i, (i, i + 1, str(i))) for i in range(PROBE_ITEMS)]
        items.sort(key=lambda item: -item.key)
        len({item.value: item for item in items})
        end = cpu_clock()
    finally:
        if enabled:
            gc.enable()
    return end - start


class Sampler:
    """Probe times, taken by sample() or, inside a ``with`` block, every
    INTERVAL_S from a timer signal.

    ``spent`` is the CPU time the probes took in this process, for callers
    to take out of the CPU time they measure.  ``slowdown(start, end)`` is
    the median probe time around a wall-clock span divided by the probe's
    reference time; ask for it once the samples after the span have been
    taken.
    """

    def __init__(self, measure=probe, reference: float = REFERENCE_S) -> None:
        self.measure = measure
        self.reference = reference
        self.mids: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        start = clock()
        cpu = cpu_clock()
        took = self.measure()
        self.spent += cpu_clock() - cpu
        end = clock()
        self.mids.append((start + end) / 2)
        self.times.append(took)

    def __enter__(self) -> "Sampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if hi - lo < 2:  # too few samples in the window: take the nearest ones
            mid = bisect.bisect_left(self.mids, (start + end) / 2)
            lo, hi = max(0, mid - 1), min(len(self.times), mid + 1)
        return statistics.median(self.times[lo:hi]) / self.reference
