"""Speed probe: how fast the machine runs right now, measured in-process.

The benchmark runs on a shared host whose speed swings by up to a factor of
two within a minute: the same round of questions took from 1.6 s to 3.7 s in
one process, and a pure-Python loop slowed and sped up with it, so that round
time over probe time varied far less than round time (see README.md, "Why
timings are scaled").

So a fixed piece of pure-Python work (string formatting, a dict, a join, a
JSON dump: the kind of work prompt rendering does) runs before every timed
question and around every set-up step, with garbage collection off, so that
the size of the program's heap does not reach into it. Each probe is timed
by the wall clock and by its thread's CPU clock. A timing is scaled by the
probe's reference time over its mean time in the same question round, or
just before and after the set-up step.

Wall-clock timings are scaled by the probe's wall clock, CPU times by its CPU
clock: on this host a slow spell shows in both, and at times more in the
wall clock. With two harness workers, though, a probe's wall clock also
counts the other worker's turns at the interpreter lock, so there question
timings are scaled by the probe's CPU clock.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
import time

# the probe's time on the reference machine when it runs at full speed (a
# 2-vCPU VM, Python 3.11; see README.md); scaled timings are seconds at that
# speed
REFERENCE_S = 0.006


def _work() -> int:
    parts = []
    sizes = {}
    for i in range(8000):
        text = f"col_{i % 97} TEXT -- value {i * 7919 % 10007}"
        sizes[text] = len(text)
        parts.append(text)
    return len("\n".join(parts)) + len(json.dumps(sizes))


class SpeedProbe:
    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []  # CPU time of the probing thread
        self._lock = threading.Lock()  # one probe at a time across workers

    def sample(self, times: int = 1) -> float:
        """Run the probe `times` times; return its mean wall clock over these."""
        with self._lock:
            enabled = gc.isenabled()
            gc.disable()
            try:
                for _ in range(times):
                    start, cpu_start = time.perf_counter(), time.thread_time()
                    _work()
                    self.cpu.append(time.thread_time() - cpu_start)
                    self.wall.append(time.perf_counter() - start)
            finally:
                if enabled:
                    gc.enable()
            return statistics.fmean(self.wall[-times:])


def to_reference(seconds: float, probe_s: float) -> float:
    """A timing in reference seconds, given the probe's time next to it."""
    return seconds * REFERENCE_S / probe_s
