"""Fixed reference measurements of host speed.

On a shared machine the speed of one core changes by up to half, in
phases that last from under a second to minutes, and every timing in a
run changes with it.  The harness samples a fixed measurement that
shares no code with tripaths alongside its own work and scales each
measured time by the measurement's reference value over its sampled
value, so a run reports what the work would have taken on a host in the
reference state.  A change to the program moves the scaled figures as
it moves the raw ones.

Two measurements, matched to the two kinds of work timed:

* ``kernel_gauge``: breadth-first search over a fixed random graph, in
  process, made of the same kind of Python objects the program spends
  its time on (dicts, lists, small ints).  It scales in-process ops,
  each by the samples taken within WINDOW_S of it.
* ``spawn_gauge``: a fresh interpreter importing a fixed set of standard
  library modules.  It scales work done in cold child processes
  (set-up probes, CLI round trips), which is mostly interpreter start
  and imports and responds to the host differently from the kernel.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import subprocess
import sys
import time

# Reference values: medians on the machine the baseline was taken on
# (Python 3.11, 2 shared vCPUs) in its usual state.
KERNEL_REF_MS = 2.0
SPAWN_REF_MS = 150.0
# Least time between two kernel samples inside a timed loop.
EVERY_S = 0.1
# Kernel samples taken this close to an op describe its host speed.
WINDOW_S = 0.5

_NODES = 3000
_STDLIB = ("argparse, json, decimal, fractions, email.parser, http.client, "
           "xml.etree.ElementTree, asyncio, unittest, logging, pathlib, statistics, "
           "dataclasses, inspect, ast, difflib, tarfile, zipfile, csv, typing")


def _factor(ref_ms: float, samples: list[float]) -> float:
    """ref_ms over the mean sample, highest and lowest fifth dropped as spikes."""
    xs = sorted(samples)
    cut = len(xs) // 5
    return ref_ms / statistics.fmean(xs[cut:len(xs) - cut])


class SpeedGauge:
    """Samples of one reference measurement, with the time each was taken."""

    def __init__(self, measure_ms, ref_ms: float):
        self._measure_ms = measure_ms
        self._ref_ms = ref_ms
        self.times: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(self._measure_ms())
        self._due = time.perf_counter() + EVERY_S

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns the interval [t0, t1] into reference time,
        from the samples within WINDOW_S of it (all if none is)."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        return _factor(self._ref_ms, self.samples[lo:hi] or self.samples)

    def overall_scale(self) -> float:
        """Factor from every sample taken so far."""
        return _factor(self._ref_ms, self.samples)

    def scaled(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Durations of the (start, end) intervals in reference seconds,
        each scaled by the samples near it."""
        return [(t1 - t0) * self.scale(t0, t1) for t0, t1 in intervals]


class _Search:
    def __init__(self):
        rng = random.Random(20251017)
        self._adj = [rng.sample(range(_NODES), 6) for _ in range(_NODES)]

    def _bfs(self) -> int:
        adj = self._adj
        parent = {0: None}
        queue = [0]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for w in adj[x]:
                if w not in parent:
                    parent[w] = x
                    queue.append(w)
        return len(parent)

    def __call__(self) -> float:
        """Time of one warm search: the first pass loads the graph into
        cache, so what the program left there does not count."""
        gc.disable()  # collections triggered by other objects are not host speed
        try:
            self._bfs()
            t0 = time.perf_counter()
            self._bfs()
            return (time.perf_counter() - t0) * 1e3
        finally:
            gc.enable()


def _spawn_ms() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {_STDLIB}"], check=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def kernel_gauge() -> SpeedGauge:
    return SpeedGauge(_Search(), KERNEL_REF_MS)


def spawn_gauge() -> SpeedGauge:
    return SpeedGauge(_spawn_ms, SPAWN_REF_MS)
