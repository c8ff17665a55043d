"""Microbenchmark of the per-message hot path (tracing disabled).

A token circulates on a small ring: every delivery triggers exactly one
``transmit``, so the workload is pure ``transmit -> schedule -> _deliver ->
on_receive`` cycles -- the path every election message takes.  The same
workload runs on the real :class:`~repro.network.network.Network` (slotted
envelopes, handle-free ``schedule_call_at`` delivery, null tracer, plain
integer counters) and on the pre-optimization replica in
:mod:`legacy_message_path` (per-message envelope/lambda/Event/handle
allocations, disabled-but-called tracer with kwargs dicts, string-keyed
metric increments).

``test_bench_message_path_speedup_vs_legacy`` asserts the optimized path is
>= 2x the legacy replica's messages/sec (``MESSAGE_PATH_SPEEDUP_GATE``
overrides the gate; CI sets it lower because shared runners are noisy), so a
message-layer regression fails the benchmark suite rather than silently
slowing every experiment.

Run with ``pytest benchmarks/bench_message_path.py --benchmark-disable`` (the
file is not collected by the tier-1 suite, which only picks up ``test_*.py``
under ``tests/``).
"""

from __future__ import annotations

import os
import time
from typing import Any

from legacy_message_path import LegacyMessageNetwork

from repro.network.delays import ConstantDelay
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import unidirectional_ring

#: Forwarded messages per measured run; enough to dwarf setup, small enough
#: to keep the suite laptop-friendly.
MESSAGES = 40_000
RING_SIZE = 4


class RelayProgram(NodeProgram):
    """Forwards every received token until the shared budget is exhausted."""

    def __init__(self, budget: dict, starter: bool = False) -> None:
        super().__init__()
        self.budget = budget
        self.starter = starter

    def on_start(self) -> None:
        if self.starter:
            self.send(0, "token")

    def on_receive(self, payload: Any, port: int) -> None:
        budget = self.budget
        if budget["remaining"] > 0:
            budget["remaining"] -= 1
            self.send(0, payload)


def optimized_messages_per_second(n_messages: int = MESSAGES) -> float:
    """Throughput of the relay workload on the real network stack."""
    budget = {"remaining": n_messages - 1}
    config = NetworkConfig(
        topology=unidirectional_ring(RING_SIZE),
        delay_model=ConstantDelay(1.0),
        seed=0,
        enable_trace=False,
    )
    network = Network(
        config, lambda uid: RelayProgram(budget, starter=(uid == 0))
    )
    started = time.perf_counter()
    network.run()
    elapsed = time.perf_counter() - started
    assert network.messages_sent() == n_messages, network.messages_sent()
    return n_messages / elapsed


def legacy_messages_per_second(n_messages: int = MESSAGES) -> float:
    """Throughput of the identical workload on the pre-optimization replica."""
    network = LegacyMessageNetwork(RING_SIZE, ConstantDelay(1.0), seed=0)
    started = time.perf_counter()
    sent = network.run_messages(n_messages)
    elapsed = time.perf_counter() - started
    assert sent == n_messages, sent
    return n_messages / elapsed


def test_bench_message_path_throughput(benchmark):
    result = benchmark.pedantic(optimized_messages_per_second, rounds=3, iterations=1)
    print(f"\noptimized message path: {result:,.0f} messages/sec")
    assert result > 0


def test_bench_message_path_speedup_vs_legacy():
    # Interleave the measurements so cache/frequency drift hits both equally.
    # The gate defaults to the documented 2x target; CI sets
    # MESSAGE_PATH_SPEEDUP_GATE lower because shared runners are noisy.
    gate = float(os.environ.get("MESSAGE_PATH_SPEEDUP_GATE", "2.0"))
    optimized = []
    legacy = []
    for _ in range(3):
        optimized.append(optimized_messages_per_second())
        legacy.append(legacy_messages_per_second())
    speedup = max(optimized) / max(legacy)
    print(
        f"\noptimized {max(optimized):,.0f} messages/sec vs "
        f"legacy {max(legacy):,.0f} messages/sec -> {speedup:.2f}x (gate {gate}x)"
    )
    assert speedup >= gate, (
        f"message hot path regressed: only {speedup:.2f}x over the legacy path "
        f"(must stay >= {gate}x)"
    )

