"""Channels: unidirectional links carrying messages with stochastic delays.

A :class:`Channel` connects one sender node to one receiver node.  On
:meth:`Channel.transmit` it samples a delay from its delay model, wraps the
payload in an :class:`~repro.network.messages.Envelope` and schedules the
delivery event.  The base channel delivers messages in sampled order, which
means messages may overtake each other -- precisely the "order of messages is
arbitrary between any pair of nodes" assumption of the paper's election
algorithm (Section 3).  :class:`FifoChannel` instead enforces first-in
first-out delivery for algorithms that need it (e.g. the synchronizers'
bookkeeping messages).

Hot-path design
---------------
``transmit``/``_deliver`` run once per message and dominate experiment wall
clock now that the engine itself is tuple-based, so the per-message work is
hoisted to construction time wherever possible:

* the network, simulator and tracer are cached on the channel; when tracing
  is disabled the cached tracer is ``None``, so the disabled path performs no
  ``record`` call and never builds the kwargs dicts;
* iid delay models are prebound (``self._draw = model.sample``), removing two
  ``isinstance`` dispatches per message; adversarial models keep the slow
  path;
* delivery is scheduled through the engine's handle-free
  :meth:`~repro.sim.engine.Simulator.schedule_call_at` fast path with the
  bound ``self._deliver`` and the envelope as argument -- no per-message
  closure, ``Event`` or ``EventHandle``;
* message counts are plain integer increments on the channel and the network
  (the network's :class:`~repro.sim.monitor.MetricsCollector` reads them back
  through externally bound counters).

Every message gets a fresh :class:`~repro.network.messages.Envelope` and
every delay is one ``sample(rng)`` call on the channel's own stream, so a
run is a pure function of its seed and nothing depends on how the
interpreter counts references.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING, Any, Optional

from repro.network.delays import DelayDistribution
from repro.network.messages import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.adversary import AdversarialDelay
    from repro.network.network import Network
    from repro.network.node import Node

__all__ = ["Channel", "FifoChannel"]

class Channel:
    """A unidirectional, non-FIFO channel with stochastic delays.

    Parameters
    ----------
    channel_id:
        Unique id within the network (used for tracing and per-channel stats).
    source, destination:
        The endpoint nodes.
    destination_port:
        The in-port number under which the destination sees this channel.
    delay_model:
        Either a :class:`~repro.network.delays.DelayDistribution` (iid delays)
        or an :class:`~repro.network.adversary.AdversarialDelay` (delays chosen
        by a strategy, subject to the model's constraints).
    rng:
        Random stream for delay sampling (one stream per channel is derived
        by the network).
    """

    def __init__(
        self,
        channel_id: int,
        source: "Node",
        destination: "Node",
        destination_port: int,
        delay_model: Any,
        rng: random.Random,
    ) -> None:
        self.channel_id = channel_id
        self.source = source
        self.destination = destination
        self.destination_port = destination_port
        self.rng = rng
        self.messages_sent = 0
        self.messages_delivered = 0
        self.total_delay = 0.0
        self.max_observed_delay = 0.0
        # Construction-time hoists for the per-message path.
        network = source.network
        self.network: "Network" = network
        self._simulator = network.simulator
        self._tracer = network.tracer if network.tracer.enabled else None
        self._source_uid = source.uid
        self._destination_uid = destination.uid
        # Subclasses that bend delivery times (FIFO) override _delivery_time;
        # detecting the override once lets the base case skip the method call.
        self._plain_delivery = type(self)._delivery_time is Channel._delivery_time
        self.delay_model = delay_model  # property: also derives self._draw

    # ------------------------------------------------------------- delay model

    @property
    def delay_model(self) -> Any:
        """The channel's delay model (settable; the prebound draw follows it)."""
        return self._delay_model

    @delay_model.setter
    def delay_model(self, model: Any) -> None:
        self._delay_model = model
        # Prebind the iid sampling method so transmit skips isinstance
        # dispatch; anything else (adversarial, invalid) takes the slow path,
        # which validates and raises on truly unsupported models.
        if isinstance(model, DelayDistribution):
            self._draw = model.sample
        else:
            self._draw = None

    def set_delay_model(self, model: Any) -> None:
        """Swap the delay model mid-run (explicit spelling of the property set).

        Guarantees audited by ``tests/test_channel_delay_swap.py``: every
        delay drawn after the swap comes from the new model (the channel
        keeps its rng stream), and a FIFO channel's delivery-order clamp is
        preserved (the no-overtaking history is per-channel state, not
        per-model).
        """
        self.delay_model = model

    # ------------------------------------------------------------------ sends

    def _sample_delay(self, payload: Any, send_time: float) -> float:
        from repro.network.adversary import AdversarialDelay  # local import, no cycle

        if isinstance(self._delay_model, AdversarialDelay):
            delay = self._delay_model.delay_for(
                source=self.source.uid,
                destination=self.destination.uid,
                payload=payload,
                send_time=send_time,
                rng=self.rng,
            )
        elif isinstance(self._delay_model, DelayDistribution):
            delay = self._delay_model.sample(self.rng)
        else:
            raise TypeError(
                f"unsupported delay model {type(self._delay_model)!r}; expected a "
                "DelayDistribution or AdversarialDelay"
            )
        if delay < 0:
            raise ValueError(f"delay model produced a negative delay: {delay}")
        return delay

    def _delivery_time(self, send_time: float, delay: float) -> float:
        """Non-FIFO channels deliver exactly ``delay`` after the send."""
        return send_time + delay

    def transmit(self, payload: Any) -> Envelope:
        """Send ``payload`` across the channel; returns the in-flight envelope."""
        simulator = self._simulator
        send_time = simulator._now
        draw = self._draw
        if draw is not None:
            delay = draw(self.rng)
            if delay < 0:
                raise ValueError(f"delay model produced a negative delay: {delay}")
        else:
            delay = self._sample_delay(payload, send_time)
        if self._plain_delivery:
            deliver_time = send_time + delay
        else:
            deliver_time = self._delivery_time(send_time, delay)
        envelope = Envelope(
            payload=payload,
            source=self._source_uid,
            destination=self._destination_uid,
            channel_id=self.channel_id,
            send_time=send_time,
            delay=delay,
            deliver_time=deliver_time,
        )
        self.messages_sent += 1
        network = self.network
        network._messages_sent += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.record(
                send_time,
                "send",
                self._source_uid,
                to=self._destination_uid,
                channel=self.channel_id,
                payload=payload,
                delay=delay,
            )
        simulator.schedule_call_at(deliver_time, self._deliver, envelope)
        return envelope

    def _deliver(self, envelope: Envelope) -> None:
        network = self.network
        now = self._simulator._now
        self.messages_delivered += 1
        network._messages_delivered += 1
        actual_delay = now - envelope.send_time
        self.total_delay += actual_delay
        if actual_delay > self.max_observed_delay:
            self.max_observed_delay = actual_delay
        payload = envelope.payload
        tracer = self._tracer
        if tracer is not None:
            tracer.record(
                now,
                "deliver",
                self._destination_uid,
                sender=self._source_uid,
                channel=self.channel_id,
                payload=payload,
                latency=actual_delay,
            )
        processing = network.processing_delay
        if processing is None:
            self.destination.deliver(payload, self.destination_port)
        else:
            self._simulator.schedule_call_at(
                now + processing.sample(self.rng),
                partial(self.destination.deliver, payload),
                self.destination_port,
            )

    # ------------------------------------------------------------------ stats

    def mean_observed_delay(self) -> float:
        """Average latency of messages delivered so far (0 when none)."""
        if self.messages_delivered == 0:
            return 0.0
        return self.total_delay / self.messages_delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel(#{self.channel_id} {self.source.uid}->{self.destination.uid}, "
            f"sent={self.messages_sent})"
        )


class FifoChannel(Channel):
    """A channel that preserves the sending order of its messages.

    Delivery time is ``max(send_time + sampled_delay, last_delivery_time)``,
    i.e. a message is never delivered before one sent earlier on the same
    channel.  The expected-delay bound of the underlying distribution remains
    an upper bound on each message's *own* sampled delay; reordering
    suppression can only delay a message further, which the synchronizer
    correctness arguments account for.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._last_delivery_time: Optional[float] = None

    def _delivery_time(self, send_time: float, delay: float) -> float:
        candidate = send_time + delay
        if self._last_delivery_time is not None and candidate < self._last_delivery_time:
            candidate = self._last_delivery_time
        self._last_delivery_time = candidate
        return candidate
