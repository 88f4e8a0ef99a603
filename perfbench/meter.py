"""Host speed meter: rescales timings to a reference host speed.

On a shared host the speed of a CPU drifts by tens of percent over tens
of seconds, so raw wall times of the same work spread too widely to gate
on.  SpeedMeter runs a fixed probe (a short pure-Python loop plus a few
small numpy operations, the mix the workloads run) every PERIOD seconds in
a thread of the benchmark process.  The process is pinned to one CPU, and
the probe needs the interpreter lock, so the probe and the measured code
alternate on the same CPU and see the same contention.

normalize(t0, t1) returns the time of the interval with the probes' own
time taken out, multiplied by REFERENCE_PROBE_S / (median probe time in
the interval): the seconds the interval would have taken on a host where
the probe runs in REFERENCE_PROBE_S.  The raw wall times are printed alongside.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

PERIOD = 0.025
WARMUP_PROBES = 20
# Median probe time on the uncontended development host (2-core Intel Xeon
# VM, Python 3.11); it fixes the unit of the normalized times.
REFERENCE_PROBE_S = 6.0e-4


@contextmanager
def pinned_to_one_cpu():
    """Pin this process (and the children it starts) to the lowest CPU it may use."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class SpeedMeter:
    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.cpu: list = []  # thread CPU time of each probe
        self._stop = threading.Event()
        self._thread = None
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal(2)
        self._big = rng.standard_normal(20_000)

    def _probe(self):
        # interpreter work, small-array numpy calls (as in the scalar
        # conjugate solves) and whole-array passes (as in the batched steppers)
        t, c = time.perf_counter(), time.thread_time()
        s = 0.0
        for i in range(500):
            s += math.sqrt(i + s % 7.0)
        v = self._small
        for _ in range(60):
            v = v * 0.5 + self._small
            s += float(v @ v) + float(np.linalg.norm(v))
        x = self._big
        for _ in range(4):
            x = x * 0.99 + self._big
        self.cpu.append(time.thread_time() - c)
        self.ends.append(time.perf_counter())
        self.starts.append(t)

    def _run(self):
        while not self._stop.wait(PERIOD):
            self._probe()

    def __enter__(self):
        for _ in range(WARMUP_PROBES):
            self._probe()
        del self.starts[:], self.ends[:], self.cpu[:]
        self._thread = threading.Thread(target=self._run, name="speed-meter", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def normalize(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1], probes excluded, rescaled to the reference probe time."""
        starts, ends, cpu = list(self.starts), list(self.ends), list(self.cpu)
        n = min(len(starts), len(ends), len(cpu))
        lo, hi = bisect.bisect_left(starts, t0, 0, n), bisect.bisect_right(ends, t1, 0, n)
        inside = sum(cpu[lo:hi])
        # short intervals borrow the probes just around them
        pad = max(0, 5 - (hi - lo))
        near = range(max(0, lo - pad), min(n, hi + pad))
        if not near:
            raise RuntimeError("speed meter has no probe samples")
        # CPU time leaves out the spells in which the measured code held the
        # CPU; the median ignores probes stretched by a GC pause
        typical = statistics.median(cpu[i] for i in near)
        return (t1 - t0 - inside) * REFERENCE_PROBE_S / typical
