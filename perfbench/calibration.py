"""Machine-speed calibration for timings taken on a shared machine.

The benchmark runs on a virtual machine shared with other tenants. Their
load does two things:

- The host deschedules the virtual CPU for milliseconds at a time (steal
  time). Every interval is therefore read from the CPU-time clock of the
  benchmark's thread (`now`), which stops while the thread is not
  running. fbrnn runs on that thread: OpenBLAS does not split the small
  products it makes.
- It slows every instruction, by 1.1x to 2.3x, in stretches of a
  fraction of a second to minutes. CPU time slows with it, and by how much
  depends on the kind of work: object-heavy interpreter code, small numpy
  calls and passes over megabytes of memory each slow differently.

For the second effect, four fixed kernels, one per kind of work, are
timed in short bursts throughout the run. A timed sample is divided by the
machine's slowdown around it: per kernel, the mean of burst time over the
kernel's reference time in the bursts within WINDOW_S of the sample; then
the mean over the four kernels. That expresses it at the machine's
uncontended speed. No single kernel tracks fbrnn: under one kind of
contention the small-numpy kernel slows most, under another the memory
kernel, by up to 30% apart. Their mean tracks fbrnn's training, inference
and checkpoint calls more closely than any one of them.

Each kernel runs once untimed before its timed run, so the timing does not
depend on what the program left in the caches. The kernels belong to the
benchmark, so a change to fbrnn moves the calibrated numbers exactly as it
moves the raw ones.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

now = time.thread_time

WINDOW_S = 0.25  # bursts within this distance of a sample calibrate it


class _Kernels:
    """The calibration kernels and their reference times: the time of one
    run on an uncontended 2-vCPU x86 sandbox (Python 3.11, OpenBLAS)."""

    REFERENCE_S = {
        "interp": 0.00018,  # pure-Python loop: object-heavy code, JSON float (de)coding
        "small_numpy": 0.00027,  # small mat-vec products and elementwise calls
        "json": 0.00049,  # JSON encoding and decoding of a float list
        "memory": 0.00112,  # streaming passes over 8 MB
    }

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._w = rng.random((32, 20))
        self._x = rng.random(20)
        self._floats = rng.standard_normal(600).tolist()
        self._a = rng.random(1 << 19)
        self._b = rng.random(1 << 19)

    def interp(self) -> None:
        s = 0
        for i in range(3000):
            s += (i * 7) % 13

    def small_numpy(self) -> None:
        for _ in range(100):
            g = np.tanh(self._w @ self._x)
            g = g * 0.5 + 1.0

    def json(self) -> None:
        json.loads(json.dumps(self._floats))

    def memory(self) -> None:
        self._a *= 0.999
        self._a += self._b * 0.001


class Calibrator:
    def __init__(self) -> None:
        self._kernels = _Kernels()
        self._ends: dict[str, list[float]] = {k: [] for k in _Kernels.REFERENCE_S}
        self._slowdowns: dict[str, list[float]] = {k: [] for k in _Kernels.REFERENCE_S}

    def burst(self, count: int = 1) -> None:
        """Time `count` runs of each kernel."""
        for _ in range(count):
            for kind in _Kernels.REFERENCE_S:
                kernel = getattr(self._kernels, kind)
                kernel()
                t0 = now()
                kernel()
                t1 = now()
                self._ends[kind].append(t1)
                self._slowdowns[kind].append((t1 - t0) / _Kernels.REFERENCE_S[kind])

    def bracket(self, seconds: float) -> None:
        """Run bursts for about `seconds` of CPU time (at least one)."""
        stop = now() + seconds
        self.burst()
        while now() < stop:
            self.burst()

    def factor(self, start: float, end: float) -> float:
        """Slowdown of the machine over [start, end]: per kernel, the mean
        slowdown of its bursts that ended within WINDOW_S of the interval
        (or of the nearest burst on each side if there are none); then the
        mean over the kernels."""
        factors = []
        for kind in _Kernels.REFERENCE_S:
            ends = self._ends[kind]
            lo = bisect.bisect_left(ends, start - WINDOW_S)
            hi = bisect.bisect_right(ends, end + WINDOW_S)
            if lo == hi:
                lo = max(0, lo - 1)
                hi = min(len(ends), hi + 1)
            factors.append(statistics.fmean(self._slowdowns[kind][lo:hi]))
        return statistics.fmean(factors)

    def seconds(self, start: float, end: float) -> float:
        """Duration of [start, end] at uncontended machine speed."""
        return (end - start) / self.factor(start, end)

    def timed(self, bracket_s: float, fn, *args, **kwargs):
        """Call fn between brackets of bursts; return (result, calibrated seconds)."""
        self.bracket(bracket_s)
        t0 = now()
        result = fn(*args, **kwargs)
        t1 = now()
        self.bracket(bracket_s)
        return result, self.seconds(t0, t1)
