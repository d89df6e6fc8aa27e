"""Jobs, their checks, the machine-speed reference, and the order statistics
the benchmark reports."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# The machine-speed reference.  On a shared host the same code runs tens of
# percent faster or slower for seconds to minutes at a time.  A fixed
# pure-Python loop that does not touch the package is timed next to the
# work, and times are reported at the speed where one loop takes REF_S.
REF_LOOP = 100_000
REF_S = 0.010
REF_REPS = 3
# least time between two readings taken between jobs
PROBE_EVERY_S = 0.5


def percentile(values, q):
    """Nearest-rank q-quantile of `values`, or None when fewer than
    MIN_BEYOND samples rank above it."""
    n = len(values)
    rank = math.ceil(q * n - 1e-9)
    if n == 0 or rank < 1 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def quartiles(values):
    """(q1, median, q3) of `values`; with one value all three equal it."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reference_loop(n=REF_LOOP):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class SpeedProbe:
    """Times the reference loop (median of REF_REPS) and keeps every
    reading.  `read` and `read_if_due` return the seconds they took."""

    def __init__(self, clock=time.perf_counter, loop=reference_loop):
        self.clock, self.loop = clock, loop
        self.readings: list[float] = []
        self._last = None

    def read(self) -> float:
        t0 = self.clock()
        walls = []
        for _ in range(REF_REPS):
            t = self.clock()
            self.loop()
            walls.append(self.clock() - t)
        self.readings.append(statistics.median(walls))
        self._last = self.clock()
        return self._last - t0

    def read_if_due(self) -> float:
        """Read when PROBE_EVERY_S has passed since the last reading."""
        if (self._last is not None
                and self.clock() - self._last < PROBE_EVERY_S):
            return 0.0
        return self.read()


def at_reference_speed(wall_s, readings):
    """`wall_s` scaled to the speed at which the reference loop takes REF_S,
    from the readings taken around it."""
    return wall_s * REF_S / statistics.median(readings)


@dataclass
class Job:
    """One call the workload makes.  `call()` returns `(value, counters)`;
    the job passes when `value == expect`.  `reference` says where `expect`
    came from.  `known` is the value a job that already fails returned when
    the benchmark was written: it still counts as failed, but `correct`
    stays true while the call keeps returning it."""

    name: str
    call: Callable[[], tuple]
    expect: object
    reference: str
    known: object = None


@dataclass
class JobRun:
    job: Job
    wall_s: float
    ok: bool
    value: object
    counters: dict = field(default_factory=dict)

    @property
    def as_known(self) -> bool:
        return self.job.known is not None and self.value == self.job.known


def run_job(job: Job, clock=time.perf_counter) -> JobRun:
    """Time one job and check it.  A raised exception is a failed job: the
    benchmark records it and keeps running."""
    t0 = clock()
    try:
        value, counters = job.call()
    except Exception as exc:  # counted as a failure; the run goes on
        return JobRun(job, clock() - t0, False, f"{type(exc).__name__}: {exc}")
    return JobRun(job, clock() - t0, value == job.expect, value, counters)


def tally(runs) -> tuple:
    """(attempted, failed, correct).  `correct` is false when a job fails in
    any way other than returning the value recorded as its known failure."""
    failed = [r for r in runs if not r.ok]
    return len(runs), len(failed), all(r.as_known for r in failed)
