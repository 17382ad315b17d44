"""A speed probe that takes the host's drift out of the benchmark's times.

On a shared host the same sample can take up to twice as long from one
second to the next.  The machine's speed changes in bursts that last from a
fraction of a second to tens of seconds: a fixed interpreter loop took 24 to
48 ms within one minute on the 2-vCPU VM the bounds were set on, its
``/proc/stat`` showed almost no steal time, and process CPU time slowed down
with the wall clock.  No median over a run of a minute removes that.

So while a sample runs, a :class:`SpeedProbe` times two fixed kernels every
``INTERVAL_S`` seconds from a ``SIGALRM`` handler:

* an interpreter-bound one, a loop of dict stores and integer arithmetic;
* a memory-bound one, a gather, multiply and sum over 1.6 MB of float64.

Each probe reports the host's *slowness* at that moment: the mean over the
two kernels of their time (best of ``REPEATS``) over their ``REFERENCE_S``
time.  :meth:`SpeedProbe.reference_seconds` turns a stretch of wall-clock
time into *reference seconds*: the time between two probes is divided by the
mean slowness of those two probes, and the probes' own time is left out.
A reference second is a second of a host on which the kernels take
``REFERENCE_S``; that was the VM above at its fast speed.

The kernels run in the benchmark's own code and never touch the program's,
so a change to the program that costs more work costs more reference
seconds; only the host's speed cancels.  The handler runs between bytecodes
of the main thread, so it never runs concurrently with the program: a long
call into compiled code only delays the next probe.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds between probes.
INTERVAL_S = 0.05
#: Each kernel is timed this many times per probe and the best time is kept,
#: so that an interrupt inside one run does not read as a slow host.
REPEATS = 2
#: Best-of-``REPEATS`` kernel times at the reference speed, in seconds
#: (interpreter kernel, memory kernel).
REFERENCE_S = (1.6e-4, 3.2e-4)

_RNG = np.random.default_rng(0)
_VALUES = _RNG.random(200_000)
_INDEX = _RNG.integers(0, _VALUES.size, 50_000)


def _interpreter_kernel() -> int:
    table, total = {}, 0
    for i in range(1500):
        table[i & 255] = total
        total += i * i % 7
    return total


def _memory_kernel() -> float:
    return float((_VALUES[_INDEX] * 2.0).sum())


KERNELS = (_interpreter_kernel, _memory_kernel)


def _best_time(kernel) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        begin = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - begin)
    return best


class SpeedProbe:
    """Probes the host's speed on a timer; ``marks`` holds
    ``(start, stop, slowness)`` per probe, in ``time.perf_counter`` seconds."""

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []
        self._previous_handler = None

    def probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        slowness = sum(
            _best_time(kernel) / reference for kernel, reference in zip(KERNELS, REFERENCE_S)
        ) / len(KERNELS)
        self.marks.append((start, time.perf_counter(), slowness))

    def start(self) -> None:
        """Probe once now, then every ``INTERVAL_S`` seconds until :meth:`stop`."""
        self._previous_handler = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def reference_seconds(self, begin: float, end: float) -> float:
        """Reference seconds of the time in ``[begin, end]`` outside the probes.

        ``begin`` and ``end`` are ``time.perf_counter`` readings of the main
        thread, so no probe straddles either.  Time before the first probe
        inside the window is paced by the mean of that probe and the last
        one before the window; time after the last probe by that probe.
        """
        total, cursor, previous = 0.0, begin, None
        for start, stop, slowness in self.marks:
            if stop <= begin:
                previous = slowness
            elif start < end:
                pace = slowness if previous is None else (previous + slowness) / 2.0
                total += (start - cursor) / pace
                cursor, previous = stop, slowness
        if previous is None:
            raise RuntimeError("reference_seconds() needs at least one probe")
        return total + (end - cursor) / previous

    def median_slowness(self, begin: float, end: float) -> float:
        """Median slowness of the probes in ``[begin, end]``, for the record."""
        inside = [slowness for start, _, slowness in self.marks if begin <= start < end]
        return float(np.median(inside)) if inside else float("nan")
