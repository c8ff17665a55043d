"""Message envelopes.

An :class:`Envelope` is the unit a channel transports: the algorithm-level
payload plus the simulation bookkeeping (who sent it, when, over which
channel, when it was delivered).  Algorithms never see envelopes -- they send
and receive raw payloads -- but tracers, metrics and the verification checkers
work on envelopes.

Hot-path note: envelopes are a per-message allocation, so the class is a
``slots=True`` dataclass (no instance ``__dict__``, faster attribute access).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Envelope"]

_envelope_counter = itertools.count()


@dataclass(slots=True)
class Envelope:
    """A payload in transit, with transport metadata.

    Attributes
    ----------
    payload:
        The algorithm-level message (e.g. a :class:`repro.core.messages.HopMessage`).
    source:
        UID of the sending node.
    destination:
        UID of the receiving node.
    channel_id:
        Identifier of the channel that carries the envelope.
    send_time:
        Simulation time at which the send occurred.
    delay:
        Sampled transit delay.
    deliver_time:
        Simulation time at which the delivery fires (``send_time + delay`` for
        plain channels; possibly later for FIFO channels).
    envelope_id:
        Process-wide unique id for tracing.
    """

    payload: Any
    source: int
    destination: int
    channel_id: int
    send_time: float
    delay: float
    deliver_time: Optional[float] = None
    envelope_id: int = field(default_factory=lambda: next(_envelope_counter))

    @property
    def in_flight_time(self) -> Optional[float]:
        """Actual transport latency (``deliver_time - send_time``) once delivered."""
        if self.deliver_time is None:
            return None
        return self.deliver_time - self.send_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope(#{self.envelope_id} {self.source}->{self.destination} "
            f"t={self.send_time:.4g}+{self.delay:.4g} payload={self.payload!r})"
        )
