"""Event objects used by the discrete-event scheduler.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is a
monotonically increasing counter assigned at scheduling time, which gives the
simulation a total, reproducible order even when many events share the same
timestamp -- a frequent situation in synchronous-round simulations where all
nodes act at integer times.

Performance note: :class:`Event` is a ``__slots__`` class whose ordering is a
single precomputed ``sort_key`` tuple comparison.  The scheduler itself goes
one step further and keeps ``(time, priority, sequence, event)`` tuples on its
heap, so the hot comparison path never enters Python-level ``__lt__`` at all;
the key on the event exists for API compatibility (events remain directly
comparable) and for code that sorts events outside the engine.

Lifecycle note: every :meth:`~repro.sim.engine.Simulator.schedule` call
builds a fresh :class:`Event`; only
:meth:`~repro.sim.engine.Simulator.reschedule` re-arms a record, and only
one whose event has already fired and whose handle the caller still owns.
Code that holds a handle therefore always observes stable, truthful
``fired``/``cancelled`` state.  Fire-and-forget work should prefer
:meth:`~repro.sim.engine.Simulator.schedule_call`, which bypasses
:class:`Event` construction entirely.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional, Tuple


class EventKind(enum.Enum):
    """Classification of scheduler events, used by tracing and metrics.

    The kind does not influence scheduling order; it exists so that monitors
    can attribute simulation activity (e.g. "how many message deliveries
    happened before time t") without inspecting callback internals.
    """

    GENERIC = "generic"
    MESSAGE_DELIVERY = "message-delivery"
    CLOCK_TICK = "clock-tick"
    TIMER = "timer"
    PROCESS_STEP = "process-step"
    CONTROL = "control"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_sequence_counter = itertools.count()


def next_sequence() -> int:
    """Return the next global scheduling sequence number.

    Used by :func:`make_event` for events constructed outside a simulator.
    :class:`~repro.sim.engine.Simulator` instead assigns sequence numbers from
    a per-instance counter, which keeps a simulation's event order independent
    of any other simulator living in the same process and avoids the global
    counter indirection on the scheduling hot path.
    """

    return next(_sequence_counter)


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    priority:
        Secondary ordering key; lower values fire first among events scheduled
        for the same time.  The default of ``0`` is almost always right --
        priorities are used by the synchronizers to guarantee that round
        bookkeeping runs after all deliveries of the round.
    sequence:
        Tie breaker assigned at scheduling time; guarantees a total order.
    callback:
        Zero-argument callable invoked when the event fires.
    kind:
        :class:`EventKind` tag used for tracing.
    payload:
        Arbitrary metadata stored alongside the event (e.g. the message being
        delivered); never interpreted by the engine itself.
    cancelled:
        Set via :meth:`EventHandle.cancel`; cancelled events are skipped.
    fired:
        Set by the scheduler once the callback has run; used so that
        cancelling an already-fired event reports failure.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "kind",
        "payload",
        "cancelled",
        "fired",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        kind: EventKind = EventKind.GENERIC,
        payload: Any = None,
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.kind = kind
        self.payload = payload
        self.cancelled = cancelled
        self.fired = False

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        """The ``(time, priority, sequence)`` ordering tuple."""
        return (self.time, self.priority, self.sequence)

    # Ordering ---------------------------------------------------------------
    # Only the scheduling key participates; callback/kind/payload are ignored,
    # matching the old ``order=True`` dataclass semantics.

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "Event") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "Event") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "Event") -> bool:
        return self.sort_key >= other.sort_key

    def fire(self) -> None:
        """Invoke the callback unless the event has been cancelled."""
        if not self.cancelled:
            self.fired = True
            self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "live")
        return (
            f"Event(t={self.time:.6g}, prio={self.priority}, "
            f"seq={self.sequence}, kind={self.kind}, {state})"
        )


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    The handle supports cancellation and simple introspection.  Cancellation
    is *lazy*: the event stays in the heap but is skipped when popped, which
    keeps cancellation O(1).
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Scheduled firing time of the underlying event."""
        return self._event.time

    @property
    def kind(self) -> EventKind:
        """The :class:`EventKind` of the underlying event."""
        return self._event.kind

    @property
    def payload(self) -> Any:
        """The payload attached at scheduling time."""
        return self._event.payload

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    @property
    def fired(self) -> bool:
        """Whether the event's callback has already run."""
        return self._event.fired

    def cancel(self) -> bool:
        """Cancel the event.

        Returns ``True`` if the event was live and is now cancelled, ``False``
        if it had already been cancelled *or had already fired* -- a fired
        event cannot be retracted, so reporting success for it would mislead
        callers implementing timeout patterns.
        """
        event = self._event
        if event.cancelled or event.fired:
            return False
        event.cancelled = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "live")
        return f"EventHandle(t={self.time:.6g}, kind={self.kind}, {state})"


def make_event(
    time: float,
    callback: Callable[[], None],
    *,
    priority: int = 0,
    kind: EventKind = EventKind.GENERIC,
    payload: Optional[Any] = None,
) -> Event:
    """Construct an :class:`Event` with a fresh global sequence number."""

    return Event(
        time=time,
        priority=priority,
        sequence=next_sequence(),
        callback=callback,
        kind=kind,
        payload=payload,
    )
