"""Microbenchmark of the election-core hot loop (ticks/sec).

A small base activation parameter stretches the idle-ticking phase, so the
workload is dominated by exactly what the election-core refactor touched:
the per-tick coin flip (cached probability, prebound rng), the per-tick
counter bookkeeping (plain integers vs string-keyed metric increments) and
tick (re)scheduling (event reuse vs a fresh Event + handle per tick).  The
same elections run on the live core and on the faithful pre-refactor replica
in :mod:`legacy_election_core`; both sides are asserted bit-identical before
any timing is trusted.

``test_bench_election_core_speedup_vs_legacy`` gates the live core at
>= 1.5x the legacy replica's ticks/sec (``ELECTION_CORE_SPEEDUP_GATE``
overrides; CI sets it lower because shared runners are noisy).

``test_bench_batch_ticks_faster_than_per_node`` additionally checks that the
opt-in ``batch_ticks`` mode (one heap entry per activation round) does not
regress below the per-node layout on the same workload.

Run with ``pytest benchmarks/bench_election_core.py --benchmark-disable``.
"""

from __future__ import annotations

import os
import time

from legacy_election_core import legacy_run_election

from repro.core.runner import run_election

#: Ring size / activation parameter tuned so one run is a few tens of
#: thousands of ticks: enough to dwarf construction, small enough for CI.
RING_SIZE = 64
A0 = 0.02
SEEDS = (1, 2, 3)


def _ticks_per_second(runner, **kwargs) -> float:
    ticks = 0
    elapsed = 0.0
    for seed in SEEDS:
        started = time.perf_counter()
        result = runner(RING_SIZE, a0=A0, seed=seed, **kwargs)
        elapsed += time.perf_counter() - started
        assert result.elected
        ticks += result.ticks
    return ticks / elapsed


def live_ticks_per_second(**kwargs) -> float:
    # The legacy replica predates batched ticks: measure the live core with
    # per-node ticks unless a caller opts batching back in, so the speedup
    # isolates the election-core refactor itself.
    kwargs.setdefault("batch_ticks", False)
    return _ticks_per_second(run_election, **kwargs)


def legacy_ticks_per_second() -> float:
    return _ticks_per_second(legacy_run_election)


def test_bench_election_core_bit_identical_to_legacy():
    """No timing is meaningful unless the two cores simulate identically."""
    for seed in SEEDS:
        live = run_election(RING_SIZE, a0=A0, seed=seed, batch_ticks=False)
        legacy = legacy_run_election(RING_SIZE, a0=A0, seed=seed)
        assert live == legacy, f"live core diverged from legacy replica at seed {seed}"


def test_bench_election_core_throughput(benchmark):
    result = benchmark.pedantic(live_ticks_per_second, rounds=3, iterations=1)
    print(f"\nelection core: {result:,.0f} ticks/sec")
    assert result > 0


def test_bench_election_core_speedup_vs_legacy():
    # Interleave the measurements so cache/frequency drift hits both equally.
    # The gate defaults to the ISSUE's 1.5x acceptance target; CI sets
    # ELECTION_CORE_SPEEDUP_GATE lower because shared runners are noisy.
    gate = float(os.environ.get("ELECTION_CORE_SPEEDUP_GATE", "1.5"))
    live = []
    legacy = []
    for _ in range(3):
        live.append(live_ticks_per_second())
        legacy.append(legacy_ticks_per_second())
    speedup = max(live) / max(legacy)
    print(
        f"\nlive {max(live):,.0f} ticks/sec vs legacy {max(legacy):,.0f} ticks/sec "
        f"-> {speedup:.2f}x (gate {gate}x)"
    )
    assert speedup >= gate, (
        f"election core regressed: only {speedup:.2f}x over the legacy replica "
        f"(must stay >= {gate}x)"
    )


def test_bench_batch_ticks_faster_than_per_node():
    """The shared round driver must not be slower than per-node ticking."""
    per_node = []
    batched = []
    for _ in range(3):
        per_node.append(live_ticks_per_second())
        batched.append(live_ticks_per_second(batch_ticks=True))
    ratio = max(batched) / max(per_node)
    print(f"\nbatch_ticks: {ratio:.2f}x vs per-node tick processes")
    # Generous floor: the win is modest on small rings, but a real
    # regression (driver overhead exceeding the saved heap traffic) fails.
    assert ratio >= 0.9, f"batch_ticks mode is {ratio:.2f}x of per-node ticking"
