"""Small measurement helpers: percentiles, the job clock, the host-speed
reference and peak memory."""

from __future__ import annotations

import gc
import heapq
import math
import os
import resource
import struct
import subprocess
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

#: Percentiles a latency may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def highest_tail_percentile(count: int, beyond: int = TAIL_SAMPLES) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least ``beyond`` of ``count``
    samples above it, or ``None`` when even the median has fewer.

    ``count * (100 - p) / 100 >= beyond`` is evaluated in tenths of a percent
    so that ``count=1000`` admits p99 exactly.
    """
    best = None
    for percentile in PERCENTILES:
        tenths = round(percentile * 10)
        if count * (1000 - tenths) >= beyond * 1000:
            best = percentile
    return best


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values`` (which must be non-empty)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


class JobClock:
    """Accumulates the timed section: running while jobs run, paused while
    the benchmark checks their outputs."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started: Optional[float] = None

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> float:
        """Pause; returns the length of the interval just ended."""
        if self._started is None:
            raise RuntimeError("clock is not running")
        interval = time.perf_counter() - self._started
        self._started = None
        self.elapsed += interval
        return interval


#: Seconds one :func:`reference_work` unit takes on the reference host: an
#: idle 2-vCPU Intel Xeon VM (Python 3.11, NumPy 2.4).  Time metrics are
#: expressed at that speed (see :class:`HostSpeed`).
REFERENCE_UNIT_S = 0.029


#: The reference's array work runs in these buffers: a unit allocates no
#: memory, so its speed is the processor's, not the allocator's state after
#: the program's last job.
_SOURCE = np.arange(16384, dtype=np.float64) * 0.618034 % 1.0
_VALUES = np.empty_like(_SOURCE)
_MASK = np.empty(_SOURCE.shape, dtype=bool)


def reference_work() -> float:
    """One unit of fixed work shaped like the program's: an interpreter loop
    over a small event heap, list and dict counters (the object core,
    store and summaries), then sorting, masking and reducing a 16k-element
    array (the columnar core).  It touches nothing of the program, so it is
    the same work on every commit."""
    state, counts, table, heap = 12345, [0] * 64, dict.fromkeys(range(64), 0), []
    for _ in range(18000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        slot = state & 63
        counts[slot] += 1
        table[slot] = table[slot] + (state >> 20)
        heapq.heappush(heap, state)
        if len(heap) > 32:
            heapq.heappop(heap)
    total = 0.0
    for round_ in range(18):
        np.add(_SOURCE, round_ * 0.0381966, out=_VALUES)
        np.remainder(_VALUES, 1.0, out=_VALUES)
        np.less(_VALUES, 0.5, out=_MASK)
        _VALUES.sort()
        total += float(np.sum(_VALUES, where=_MASK))
    return sum(counts) + total


def _unit_time() -> float:
    """Seconds one :func:`reference_work` unit takes, garbage collector off
    so that the heap it runs beside cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """How fast the shared host runs, sampled with the clock paused.

    The shared host this benchmark was built on drifts: a fixed piece of
    work took up to 1.6x longer from one minute to a few minutes later,
    so a raw time compares moments of the host, not versions of the
    program.  The timed loop therefore runs :func:`reference_work` units
    between jobs, spread through the run (:meth:`keep_up`), and
    :attr:`factor` -- their mean duration over :data:`REFERENCE_UNIT_S` --
    rescales the run's times to the reference host's speed; set-ups are
    rescaled by units run just before them.

    The two vCPUs slow down independently, so work spread over both by the
    program's pool is timed against ``processes`` units run at once: this
    process runs one while helper interpreters (``python -m
    perfbench.measure``, started here and stopped by :meth:`close`) run
    the others, and a sample is their mean.
    """

    #: Reference time as a share of the measured work's time.
    SHARE = 0.1

    def __init__(self, processes: int = 1) -> None:
        self.samples: List[float] = []
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self._helpers = [
            subprocess.Popen([sys.executable, "-m", "perfbench.measure"], cwd=root,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for _ in range(processes - 1)
        ]

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def sample(self) -> None:
        for helper in self._helpers:
            helper.stdin.write(b"g")
            helper.stdin.flush()
        times = [_unit_time()]
        for helper in self._helpers:
            reply = helper.stdout.read(8)
            if len(reply) != 8:
                raise RuntimeError(f"reference helper {helper.pid} exited")
            times.append(struct.unpack("d", reply)[0])
        self.samples.append(sum(times) / len(times))

    def keep_up(self, timed: float) -> None:
        """Sample until reference time is :attr:`SHARE` of ``timed`` seconds
        of measured work (at least one unit)."""
        while not self.samples or self.spent < self.SHARE * timed:
            self.sample()

    @property
    def factor(self) -> float:
        """Mean unit time over the reference's: above 1 on a slower host."""
        return self.spent / (len(self.samples) * REFERENCE_UNIT_S)

    def close(self) -> None:
        """Stop the helpers and wait for each to end."""
        for helper in self._helpers:
            try:
                helper.stdin.close()
                helper.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _serve() -> None:
    """Helper loop: one unit per ``g`` on stdin, its seconds on stdout."""
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    while stdin.read(1) == b"g":
        stdout.write(struct.pack("d", _unit_time()))
        stdout.flush()


def peak_rss_mb() -> List[float]:
    """``[parent, largest reaped child]`` peak resident memory in MiB
    (Linux reports ``ru_maxrss`` in KiB)."""
    return [resource.getrusage(who).ru_maxrss / 1024.0
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]


if __name__ == "__main__":
    _serve()
