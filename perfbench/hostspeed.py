"""Host-speed probe: rescale wall time to a reference host speed.

The benchmark runs on shared virtual machines whose speed changes while it
runs.  On the 2-core Xeon VM the bounds were set on, a fixed pure-Python
loop took anywhere from 0.24 s to 0.37 s, switching between a fast and a
slow regime every few seconds, with no steal time and with CPU time equal
to wall time: the CPU itself runs slower, so neither CPU time nor more
repetitions inside one run remove it.  Unscaled, host times of identical
code spread by 20-40% (quartile distance over median) across ten runs.

:class:`HostSpeed` measures that speed alongside the timed work: a daemon
thread, on the same CPU as the workload, times a fixed loop every
``PERIOD_S``.  :meth:`HostSpeed.scale` converts a wall-time interval to
seconds at the reference speed, ``REFERENCE_S`` per loop, using the median
loop time observed during the interval.  A slowdown of the host stretches
the interval and the loop alike and cancels; a slowdown of the program
stretches only the interval and shows in full.  The probe costs the
workload about 3% of its CPU, the same on every commit.

The loop is timed in the probe thread's own CPU time, not wall time.  The
workload shares the probe's CPU: its GIL-free work (the columnar C kernel
runs through ctypes) and its child processes can preempt the probe, and the
probe waits for the GIL while the workload holds it.  Neither counts as
CPU time of the probe thread, so the divisor depends on the host's speed
only, not on how the program spends its time.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter, sleep, thread_time

#: Iterations of the probe loop, and its median CPU time on the reference VM.
LOOP = 20_000
REFERENCE_S = 0.0015
PERIOD_S = 0.05
#: Probe samples an interval needs; shorter intervals borrow their neighbours'.
MIN_SAMPLES = 5


def _loop() -> float:
    started = thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return thread_time() - started


class HostSpeed:
    """Samples the host's speed in the background while it is entered."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)
        self._cpus = os.sched_getaffinity(0)

    def __enter__(self) -> "HostSpeed":
        # One CPU for the workload and the probe, so that they share a speed.
        os.sched_setaffinity(0, {min(self._cpus)})
        self.samples.append((perf_counter(), _loop()))
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def _run(self) -> None:
        while not self._stop.is_set():
            started = perf_counter()
            self.samples.append((started, _loop()))
            sleep(PERIOD_S)

    def scale(self, start: float, end: float) -> float:
        """Seconds the interval ``[start, end)`` takes at the reference speed."""
        middle = (start + end) / 2
        half = (end - start) / 2
        durations: list[float] = []
        while True:
            durations = [d for t, d in self.samples if abs(t - middle) <= half]
            if len(durations) >= MIN_SAMPLES or len(durations) == len(self.samples):
                break
            half += PERIOD_S
        return (end - start) * REFERENCE_S / statistics.median(durations)
