"""Microbenchmark of the columnar election engine (ticks/sec vs object core).

A small base activation parameter stretches the idle-ticking phase, so the
vector core's throughput is dominated by its per-round coin machinery: one
uniform block per activation round compared against the probability column.
The object core counts the same ticks in closed form (one activation timer
per idle spell).

``test_bench_vector_core_speedup_vs_object`` gates the vector core at
>= 3x the object core's default-path ticks/sec (``VECTOR_SPEEDUP_GATE``
overrides; CI sets it lower because shared runners are noisy) against the
object core's only path.

The two engines draw from different random streams by design (see the
stream-migration note in ``tests/harness/differential.py``), so unlike the
legacy-replica benches there is no bit-identical precondition; the semantic
equivalence is covered by ``tests/test_property_vector_core.py`` and
``tests/oracles/test_activation_parity.py``.

Run with ``pytest benchmarks/bench_vector_core.py --benchmark-disable``.
"""

from __future__ import annotations

import os
import time

from repro.core.runner import run_election
from repro.core.vector_core import run_vector_election

#: A few tens of thousands of ticks per run -- enough to dwarf construction,
#: small enough for CI.
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


def vector_ticks_per_second() -> float:
    return _ticks_per_second(run_vector_election)


def object_ticks_per_second() -> float:
    return _ticks_per_second(run_election)


def test_bench_vector_core_invariants():
    """No timing is meaningful unless the engine elects correctly."""
    for seed in SEEDS:
        result = run_vector_election(RING_SIZE, a0=A0, seed=seed)
        assert result.elected
        assert result.leaders_elected == 1
        assert result.knockout_messages == RING_SIZE - 1
        assert result == run_vector_election(RING_SIZE, a0=A0, seed=seed)


def test_bench_vector_core_throughput(benchmark):
    result = benchmark.pedantic(vector_ticks_per_second, rounds=3, iterations=1)
    print(f"\nvector core: {result:,.0f} ticks/sec")
    assert result > 0


def test_bench_vector_core_speedup_vs_object():
    # Interleave the measurements so cache/frequency drift hits both equally.
    # The gate defaults to the ISSUE's 3x acceptance target; CI sets
    # VECTOR_SPEEDUP_GATE lower because shared runners are noisy.
    gate = float(os.environ.get("VECTOR_SPEEDUP_GATE", "3.0"))
    vector = []
    obj = []
    for _ in range(3):
        vector.append(vector_ticks_per_second())
        obj.append(object_ticks_per_second())
    speedup = max(vector) / max(obj)
    print(
        f"\nvector {max(vector):,.0f} ticks/sec vs object {max(obj):,.0f} "
        f"ticks/sec -> {speedup:.2f}x (gate {gate}x)"
    )
    assert speedup >= gate, (
        f"vector core regressed: only {speedup:.2f}x over the object core "
        f"(must stay >= {gate}x)"
    )
