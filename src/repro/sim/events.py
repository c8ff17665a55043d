"""Event objects used by the discrete-event scheduler.

Events fire in ``(time, priority, sequence)`` order.  The sequence number is
a per-simulator counter assigned at scheduling time, which gives the
simulation a total, reproducible order even when many events share the same
timestamp -- a frequent situation in synchronous-round simulations where all
nodes act at integer times.

:class:`Event` is a plain ``__slots__`` record and defines no ordering: the
scheduler keeps ``(time, priority, sequence, event)`` tuples on its heap, so
comparisons stay in C and never reach the event itself.

Lifecycle note: every :meth:`~repro.sim.engine.Simulator.schedule` call
builds a fresh :class:`Event`, and no record is ever re-armed, so code that
holds a handle always observes stable, truthful ``fired``/``cancelled``
state.  Message deliveries go through
:meth:`~repro.sim.engine.Simulator.schedule_call_at`, which bypasses
:class:`Event` construction entirely.
"""

from __future__ import annotations

from typing import Callable


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
    cancelled:
        Set via :meth:`EventHandle.cancel`; cancelled events are skipped.
    fired:
        Set by the scheduler once the callback has run; used so that
        cancelling an already-fired event reports failure.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled", "fired")

    def __init__(
        self, time: float, priority: int, sequence: int, callback: Callable[[], None]
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "live")
        return (
            f"Event(t={self.time:.6g}, prio={self.priority}, "
            f"seq={self.sequence}, {state})"
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
        return f"EventHandle(t={self.time:.6g}, {state})"

