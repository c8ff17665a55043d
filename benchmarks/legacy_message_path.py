"""Faithful replica of the pre-optimization per-message path.

``bench_message_path.py`` and ``scripts/bench_report.py`` measure the current
message hot path (slotted envelopes, handle-free delivery scheduling, null
tracer, plain integer counters) against this replica of how
``Channel.transmit``/``_deliver`` worked before: a dict-backed ``Envelope``
dataclass per message, a delivery lambda closed over the envelope, an ``Event`` plus
``EventHandle`` per delivery via ``schedule_at``, two ``tracer.record`` calls
whose kwargs dicts are built even though tracing is disabled, string-keyed
``MetricsCollector.increment`` lookups, per-message ``isinstance`` dispatch in
delay sampling, and the unconditional per-event stop-predicate listener the
network used to register.

Both paths run on the *current* engine, so the comparison isolates the
message-layer overhead (the engine's own speedup is gated separately by
``bench_engine_microbench.py``).  Like ``legacy_engine.py``, this file is a
benchmark fixture: it must stay behaviourally faithful to the old code, not
get optimized.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.network.delays import DelayDistribution
from repro.sim.engine import Simulator
from repro.sim.events import EventKind
from repro.sim.monitor import MetricsCollector
from repro.sim.trace import Tracer

__all__ = ["LegacyMessageNetwork", "LegacyRelayProgram"]

_envelope_counter = itertools.count()


@dataclass
class LegacyEnvelope:
    """The old ``Envelope``: a plain (dict-backed) dataclass, one per message."""

    payload: Any
    source: int
    destination: int
    channel_id: int
    send_time: float
    delay: float
    deliver_time: Optional[float] = None
    envelope_id: int = field(default_factory=lambda: next(_envelope_counter))


class LegacyChannel:
    """The old per-message path, verbatim in structure."""

    def __init__(
        self,
        channel_id: int,
        source: "LegacyNode",
        destination: "LegacyNode",
        destination_port: int,
        delay_model: DelayDistribution,
        rng: random.Random,
    ) -> None:
        self.channel_id = channel_id
        self.source = source
        self.destination = destination
        self.destination_port = destination_port
        self.delay_model = delay_model
        self.rng = rng
        self.messages_sent = 0
        self.messages_delivered = 0
        self.total_delay = 0.0
        self.max_observed_delay = 0.0

    def _sample_delay(self, payload: Any, send_time: float) -> float:
        # The old code dispatched on the model type per message (adversarial
        # vs iid); replicate the isinstance probes and the validation.
        if isinstance(self.delay_model, DelayDistribution):
            delay = self.delay_model.sample(self.rng)
        else:  # pragma: no cover - benchmark fixture, models are always iid
            raise TypeError(f"unsupported delay model {type(self.delay_model)!r}")
        if delay < 0:
            raise ValueError(f"delay model produced a negative delay: {delay}")
        return delay

    def _delivery_time(self, send_time: float, delay: float) -> float:
        return send_time + delay

    def transmit(self, payload: Any) -> LegacyEnvelope:
        network = self.source.network
        send_time = network.simulator.now
        delay = self._sample_delay(payload, send_time)
        deliver_time = self._delivery_time(send_time, delay)
        envelope = LegacyEnvelope(
            payload=payload,
            source=self.source.uid,
            destination=self.destination.uid,
            channel_id=self.channel_id,
            send_time=send_time,
            delay=delay,
            deliver_time=deliver_time,
        )
        self.messages_sent += 1
        network.metrics.increment("messages_sent")
        network.tracer.record(
            send_time,
            "send",
            self.source.uid,
            to=self.destination.uid,
            channel=self.channel_id,
            payload=payload,
            delay=delay,
        )
        network.simulator.schedule_at(
            deliver_time,
            lambda: self._deliver(envelope),
            kind=EventKind.MESSAGE_DELIVERY,
            payload=envelope,
        )
        return envelope

    def _deliver(self, envelope: LegacyEnvelope) -> None:
        network = self.source.network
        self.messages_delivered += 1
        actual_delay = network.simulator.now - envelope.send_time
        self.total_delay += actual_delay
        self.max_observed_delay = max(self.max_observed_delay, actual_delay)
        network.metrics.increment("messages_delivered")
        network.tracer.record(
            network.simulator.now,
            "deliver",
            self.destination.uid,
            sender=self.source.uid,
            channel=self.channel_id,
            payload=envelope.payload,
            latency=actual_delay,
        )
        self.destination.deliver(envelope.payload, self.destination_port)


class LegacyNode:
    def __init__(self, uid: int, network: "LegacyMessageNetwork") -> None:
        self.uid = uid
        self.network = network
        self.out_channels: List[LegacyChannel] = []
        self.program: Optional["LegacyRelayProgram"] = None

    def send(self, port: int, payload: Any) -> None:
        self.out_channels[port].transmit(payload)

    def deliver(self, payload: Any, in_port: int) -> None:
        self.network.metrics.increment("deliveries")
        self.program.on_receive(payload, in_port)


class LegacyRelayProgram:
    """Forwards every received token until the shared budget is exhausted."""

    def __init__(self, node: LegacyNode, budget: dict) -> None:
        self.node = node
        self.budget = budget

    def on_receive(self, payload: Any, port: int) -> None:
        budget = self.budget
        if budget["remaining"] > 0:
            budget["remaining"] -= 1
            self.node.send(0, payload)


class LegacyMessageNetwork:
    """A ring of relay nodes on the old message path (tracing disabled).

    Mirrors what the pre-optimization ``Network`` put between the program and
    the engine, including the per-event stop-predicate listener it registered
    unconditionally.
    """

    def __init__(self, ring_size: int, delay_model: DelayDistribution, seed: int = 0) -> None:
        self.simulator = Simulator()
        self.metrics = MetricsCollector()
        self.tracer = Tracer(enabled=False)
        self._stop_predicates: List[Any] = []
        self.nodes = [LegacyNode(uid, self) for uid in range(ring_size)]
        budget = {"remaining": 0}
        self.budget = budget
        for uid, node in enumerate(self.nodes):
            successor = self.nodes[(uid + 1) % ring_size]
            channel = LegacyChannel(
                channel_id=uid,
                source=node,
                destination=successor,
                destination_port=0,
                delay_model=delay_model,
                rng=random.Random(seed * 1_000_003 + uid),
            )
            node.out_channels.append(channel)
            node.program = LegacyRelayProgram(node, budget)
        self.simulator.add_listener(self._after_event_hook)

    def _after_event_hook(self, event) -> None:
        if not self._stop_predicates:
            return
        for predicate in self._stop_predicates:  # pragma: no cover - unused
            if predicate():
                self.simulator.stop()
                return

    def run_messages(self, count: int) -> int:
        """Circulate one token for ``count`` forwarded messages; returns count."""
        self.budget["remaining"] = count - 1
        self.nodes[0].send(0, "token")
        self.simulator.run()
        return int(self.metrics.count("messages_sent"))
