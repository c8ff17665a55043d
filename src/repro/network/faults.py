"""Fault injection: message loss and crash-stop nodes.

The ABE model deliberately pushes unreliability *below* the channel
abstraction: a lossy physical link is modelled as a reliable channel whose
delay is the (unbounded, finite-expectation) retransmission time.  This module
provides the complementary view for robustness experiments -- what happens if
messages are simply lost (no retransmission) or nodes crash:

* :class:`MessageLossFault` drops each message on selected channels with a
  fixed probability, *after* the send has been counted (the sender cannot
  tell).
* :class:`CrashStopFault` silently stops a node at a given time: from then on
  it neither processes deliveries nor acts on its own (``NodeProgram.halt``).
* :class:`FaultInjector` applies fault specifications to a built
  :class:`~repro.network.network.Network` and keeps counters of what it did.

The test-suite uses these to demonstrate *why* the paper folds loss into the
delay distribution: without retransmission the election algorithm can deadlock
(a lost final message leaves a lone active node waiting forever), whereas the
same loss rate expressed as a retransmission delay keeps every execution live.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.network.channel import Channel
from repro.network.network import Network
from repro.network.node import Node

__all__ = ["MessageLossFault", "CrashStopFault", "FaultInjector"]


@dataclass(frozen=True)
class MessageLossFault:
    """Drop messages on matching channels with probability ``loss_probability``.

    Attributes
    ----------
    loss_probability:
        Per-message drop probability in ``[0, 1)``.
    channel_predicate:
        Optional filter selecting which channels are lossy (default: all).
    """

    loss_probability: float
    channel_predicate: Optional[Callable[[Channel], bool]] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_probability < 1.0):
            raise ValueError("loss_probability must be in [0, 1)")

    def applies_to(self, channel: Channel) -> bool:
        """Whether this fault affects the given channel."""
        if self.channel_predicate is None:
            return True
        return bool(self.channel_predicate(channel))


@dataclass(frozen=True)
class CrashStopFault:
    """Crash a node at a given simulation time (crash-stop: it never recovers)."""

    node_uid: int
    crash_time: float

    def __post_init__(self) -> None:
        if self.crash_time < 0:
            raise ValueError("crash_time must be non-negative")


@dataclass
class FaultInjector:
    """Applies fault specifications to a built network.

    Create the network first, then the injector, then call :meth:`apply`
    before running.  The injector monkey-wraps channel delivery and node
    delivery hooks; the wrapped objects keep functioning normally for
    unaffected traffic.

    The fault tallies are plain integer attributes (the drop check runs once
    per message on lossy channels); the network's metrics collector reads
    them back under the historical counter names (``"messages_dropped"``,
    ``"nodes_crashed"``, ``"deliveries_to_crashed"``).  Several injectors on
    one network sum, exactly like repeated string-keyed increments did.
    """

    network: Network
    rng: Optional[random.Random] = None
    messages_dropped: int = 0
    deliveries_to_crashed: int = 0
    nodes_crashed: List[int] = field(default_factory=list)
    _lossy_applied: Set[Tuple[MessageLossFault, int]] = field(
        default_factory=set, init=False, repr=False
    )
    _crash_applied: Set[Tuple[int, float]] = field(
        default_factory=set, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = self.network.random_source.stream("faults")
        metrics = self.network.metrics
        metrics.bind_external_sum("messages_dropped", self, lambda: self.messages_dropped)
        metrics.bind_external_sum("nodes_crashed", self, lambda: len(self.nodes_crashed))
        metrics.bind_external_sum(
            "deliveries_to_crashed", self, lambda: self.deliveries_to_crashed
        )

    # ------------------------------------------------------------------ loss

    def apply_message_loss(self, fault: MessageLossFault) -> int:
        """Wrap matching channels so they drop messages; returns channels affected.

        Applying the *same* fault twice is a no-op per channel: the wrap is
        recorded under ``(fault, channel)``, so a repeated ``apply`` (e.g. a
        retried setup path) does not stack a second ``lossy_deliver`` layer
        and silently compound the drop probability.
        """
        affected = 0
        for channel in self.network.channels:
            if not fault.applies_to(channel):
                continue
            key = (fault, id(channel))
            if key in self._lossy_applied:
                continue
            self._lossy_applied.add(key)
            self._wrap_channel(channel, fault.loss_probability)
            affected += 1
        return affected

    def _wrap_channel(self, channel: Channel, loss_probability: float) -> None:
        original_deliver = channel._deliver
        injector = self

        def lossy_deliver(envelope):  # noqa: ANN001 - matches wrapped signature
            if injector.rng.random() < loss_probability:
                injector.messages_dropped += 1
                injector.network.tracer.record(
                    injector.network.simulator.now,
                    "drop",
                    channel.destination.uid,
                    sender=channel.source.uid,
                    channel=channel.channel_id,
                    payload=envelope.payload,
                )
                return
            original_deliver(envelope)

        channel._deliver = lossy_deliver  # type: ignore[method-assign]

    # ----------------------------------------------------------------- crash

    def apply_crash(self, fault: CrashStopFault) -> None:
        """Schedule a crash-stop for the given node (idempotent per fault)."""
        if not (0 <= fault.node_uid < self.network.n):
            raise ValueError(f"node {fault.node_uid} does not exist")
        key = (fault.node_uid, fault.crash_time)
        if key in self._crash_applied:
            return
        self._crash_applied.add(key)
        node = self.network.nodes[fault.node_uid]
        self.network.simulator.schedule_at(
            fault.crash_time, lambda: self._crash_now(node)
        )

    def _crash_now(self, node: Node, _requeued: bool = False) -> bool:
        if node.uid in self.nodes_crashed:
            return False
        if not _requeued and self.network.simulator.now == 0.0:
            # A crash scheduled at time 0 enters the event queue before
            # ``Network.start()`` queues the ``on_start`` events at the same
            # instant; without a defer the "crashed" node would be started
            # (and its activity armed) right after the crash fired.  One
            # same-instant requeue sorts the crash after them -- exactly one,
            # so it cannot loop.
            self.network.simulator.schedule_at(
                0.0, lambda: self._crash_now(node, True)
            )
            return False
        return self._crash_apply(node)

    def _crash_apply(self, node: Node) -> bool:
        if node.uid in self.nodes_crashed:
            return False
        self.nodes_crashed.append(node.uid)
        self.network.tracer.record(
            self.network.simulator.now, "crash", node.uid
        )
        program = node.program
        if program is not None:
            program.halt()

        def swallow(payload, in_port):  # noqa: ANN001 - matches wrapped signature
            self.deliveries_to_crashed += 1

        node.deliver = swallow  # type: ignore[method-assign]
        return True

    # ------------------------------------------------------------------ batch

    def apply(self, faults: Iterable[object]) -> None:
        """Apply a heterogeneous collection of fault specifications."""
        for fault in faults:
            if isinstance(fault, MessageLossFault):
                self.apply_message_loss(fault)
            elif isinstance(fault, CrashStopFault):
                self.apply_crash(fault)
            else:
                raise TypeError(f"unknown fault specification {fault!r}")
