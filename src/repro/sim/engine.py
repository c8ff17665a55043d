"""The discrete-event simulation engine.

:class:`Simulator` is a minimal but complete event scheduler: a binary heap of
``(time, priority, sequence, event)`` tuples ordered lexicographically, which
matches the documented ``(time, priority, sequence)`` event order while keeping
heap comparisons in C (plain tuple comparison); :class:`Event` itself defines
no ordering.  All higher layers (channels, clocks, synchronizers, the
election algorithm) are expressed as callbacks scheduled on a single simulator
instance, so an entire distributed execution is one totally ordered sequence
of events, reproducible from a seed.

Scheduling entry points
-----------------------
There are two ways onto the heap, and they share one sequence counter:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` (relative and
  absolute time, one body) build an :class:`Event` and return a cancellable
  :class:`EventHandle`.  Timers, clock ticks and every self-repeating process
  use them, scheduling a fresh event per firing.
* :meth:`Simulator.schedule_call_at` is the *handle-free* message-delivery
  path: it pushes a plain ``(time, priority, sequence, fn, arg)`` tuple -- no
  :class:`Event`, no :class:`EventHandle`, no closure.
  :class:`~repro.network.channel.Channel` delivers every message through it.

Hot-path notes
--------------
The engine dominates the wall-clock time of every experiment (millions of
heap operations per election), so :meth:`Simulator.run` and the scheduling
calls deliberately trade a little readability for speed:

* heap entries are tuples, so ordering never calls back into Python;
* the sequence counter is a per-simulator integer (no global
  ``itertools.count`` indirection, and two simulators in one process cannot
  perturb each other's event numbering);
* ``heapq.heappush``/``heappop`` and the queue list are bound to locals inside
  the loop.

Components that must observe *every* event regardless of how it was
scheduled (e.g. :meth:`~repro.network.network.Network.stop_when` predicates)
use the :meth:`~Simulator.add_before_event` hooks, which the run loop invokes
before firing each entry of either kind.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, EventHandle

#: Heap entry layouts.  Regular events are ``(time, priority, sequence,
#: event)``; handle-free delivery entries are ``(time, priority, sequence,
#: fn, arg)``.  The sequence is unique per simulator, so heap comparisons
#: never reach the trailing elements and the two layouts can share one heap.
QueueEntry = Tuple[float, int, int, Event]

# Module-level bindings: a global load is cheaper than attribute lookup on the
# per-event path, and these never change.
_heappush = heapq.heappush
_heappop = heapq.heappop
_isfinite = math.isfinite
_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (negative delays, re-running, ...)."""


class SimulationDiverged(SimulationError):
    """A run exhausted its event or time budget with live work still pending.

    Raised by :meth:`Simulator.run` only when the caller opts in with
    ``raise_on_limit=True``; the default behaviour (truncate silently and
    return) is unchanged.  The exception distinguishes the three legitimate
    ways a run ends -- queue exhaustion, an explicit :meth:`Simulator.stop`
    (e.g. a satisfied ``stop_when`` predicate), and budget truncation -- and
    fires only for the last, so a simulation that *completed* within its
    budget never raises.

    Carries enough context to diagnose the divergence without re-running:
    ``events_processed``, the clock value ``now``, and the ``max_events`` /
    ``max_time`` budgets that were in force.  Picklable, so it crosses
    ``multiprocessing`` worker boundaries intact.
    """

    def __init__(
        self,
        message: str,
        events_processed: int = 0,
        now: float = 0.0,
        max_events: Optional[int] = None,
        max_time: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.events_processed = events_processed
        self.now = now
        self.max_events = max_events
        self.max_time = max_time

    def __reduce__(self):
        # Default exception pickling replays only ``args``; replay the full
        # positional signature so worker-raised instances keep their context.
        return (
            type(self),
            (
                self.args[0] if self.args else "",
                self.events_processed,
                self.now,
                self.max_events,
                self.max_time,
            ),
        )


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock.  Defaults to ``0.0``.

    Notes
    -----
    The simulator is intentionally ignorant of networks, nodes and messages;
    it only knows about timed callbacks.  Determinism is guaranteed because

    * events are ordered by ``(time, priority, sequence)`` where the sequence
      is assigned in scheduling order (one shared counter across
      :meth:`schedule` and the handle-free :meth:`schedule_call_at` path, so
      the two interleave exactly like two ``schedule`` calls would), and
    * the engine itself never consults a random number generator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append("b"))
    >>> sim.schedule_call_at(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now: float = float(start_time)
        self._queue: List[QueueEntry] = []
        self._running: bool = False
        self._stopped: bool = False
        self._events_processed: int = 0
        self._events_scheduled: int = 0
        self._sequence: int = 0
        # Before-event hooks live in a list so run() can bind it once and
        # still observe hooks installed mid-run (the list is captured but
        # mutated in place).
        self._before_event: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (excluding cancelled events)."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled on this simulator."""
        return self._events_scheduled

    @property
    def pending(self) -> int:
        """Number of events currently in the queue (including cancelled ones)."""
        return len(self._queue)

    # ------------------------------------------------------------- scheduling

    def schedule(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` time units from now.

        Raises
        ------
        SimulationError
            If ``delay`` is negative or not a finite number.
        """
        # The chained comparison rejects NaN (fails both bounds), +/-inf and
        # negatives in one happy-path check.
        if not (0.0 <= delay < _INF):
            if not _isfinite(delay):
                raise SimulationError(f"delay must be finite, got {delay!r}")
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulation time.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current simulation time or is NaN.
        """
        if not (time >= self._now):  # also rejects NaN, which fails every compare
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback)
        _heappush(self._queue, (time, priority, sequence, event))
        self._events_scheduled += 1
        return EventHandle(event)

    def schedule_call_at(
        self, time: float, fn: Callable[[Any], None], arg: Any = None, priority: int = 0
    ) -> None:
        """Handle-free path: call ``fn(arg)`` at the absolute time ``time``.

        The fire-and-forget sibling of :meth:`schedule_at`: no :class:`Event`
        is built and no :class:`EventHandle` is returned (the call cannot be
        cancelled).  Ordering is identical to :meth:`schedule_at` -- the
        entry consumes the same shared sequence counter, so handle-free and
        regular events interleave exactly by scheduling order at equal
        ``(time, priority)``.

        This is the entry point of every message delivery
        (:meth:`~repro.network.channel.Channel.transmit` computes the absolute
        delivery time from the sampled delay).  Passing the receiver as
        ``arg`` (typically a bound method plus its argument) is what lets the
        message path avoid allocating a closure per delivery.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current simulation time or is NaN.
        """
        if not (time >= self._now):  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        _heappush(self._queue, (time, priority, sequence, fn, arg))
        self._events_scheduled += 1

    def add_before_event(self, hook: Callable[[], None]) -> None:
        """Register an argument-less hook invoked before every entry fires.

        Hooks run immediately before *every* live entry -- regular events and
        handle-free calls alike -- after the clock has advanced to
        the entry's time, in registration order.  They see no event object,
        which is what lets the delivery path skip building one;
        :meth:`repro.network.network.Network.stop_when` multiplexes its
        predicates behind a single hook so the no-hook case costs one
        truthiness check per event.  Adding or removing a hook from a
        callback during :meth:`run` takes effect from the next event.
        """
        self._before_event.append(hook)

    def remove_before_event(self, hook: Callable[[], None]) -> None:
        """Remove a previously registered before-event hook (no-op if absent)."""
        try:
            self._before_event.remove(hook)
        except ValueError:
            pass

    # ---------------------------------------------------------------- running

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        *,
        raise_on_limit: bool = False,
    ) -> float:
        """Run the simulation until exhaustion, a time horizon, or an event cap.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after this
            time; the clock is advanced to ``until``.
        max_events:
            If given, stop after firing this many events (useful as a safety
            net against non-terminating algorithms).
        raise_on_limit:
            If ``True``, exhausting either budget while live events are still
            pending raises :class:`SimulationDiverged` instead of truncating
            silently -- the in-simulation divergence watchdog.  A run that
            ends by queue exhaustion or an explicit :meth:`stop` (a satisfied
            ``stop_when`` predicate) never raises.

        Returns
        -------
        float
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        truncated = False
        fired = 0
        limit = _INF if max_events is None else max_events
        queue = self._queue
        # The list is bound once; in-place mutation keeps mid-run installs
        # visible.
        before = self._before_event
        try:
            while queue and not self._stopped:
                if fired >= limit:
                    # Event cap: break (not the while-else) so the clock is NOT
                    # advanced to the horizon past still-pending events.
                    truncated = True
                    break
                if until is not None:
                    # Peek before popping: drain cancelled heads in one pass so
                    # the horizon check sees the next *live* event.  Handle-free
                    # entries (length 5) are never cancellable.
                    while queue:
                        head = queue[0]
                        if len(head) == 4 and head[3].cancelled:
                            _heappop(queue)
                        else:
                            break
                    if not queue:
                        continue  # loop condition fails; horizon handling below
                    if queue[0][0] > until:
                        self._now = until
                        truncated = True
                        break
                    entry = _heappop(queue)
                    is_event = len(entry) == 4
                else:
                    # No horizon: pop first, skip cancelled events as they come.
                    entry = _heappop(queue)
                    is_event = len(entry) == 4
                    if is_event and entry[3].cancelled:
                        continue
                self._now = entry[0]
                if before:
                    for hook in before:
                        hook()
                if is_event:
                    event = entry[3]
                    event.fired = True
                    event.callback()
                else:
                    # Handle-free entry: no Event, one call.
                    entry[3](entry[4])
                self._events_processed += 1
                fired += 1
            else:
                if until is not None and not self._stopped:
                    # Queue exhausted before the horizon: advance to it anyway so
                    # that repeated run(until=...) calls behave like a clock.
                    self._now = max(self._now, until)
        finally:
            self._running = False
        if truncated and raise_on_limit and not self._stopped:
            # Only live pending work counts as divergence; a queue holding
            # nothing but cancelled records is a completed simulation.
            for entry in queue:
                if len(entry) == 5 or not entry[3].cancelled:
                    raise SimulationDiverged(
                        "simulation exhausted its budget with live events pending "
                        f"(events_processed={self._events_processed}, now={self._now:.6g}, "
                        f"max_events={max_events}, max_time={until})",
                        self._events_processed,
                        self._now,
                        max_events,
                        until,
                    )
        return self._now

    def stop(self) -> None:
        """Request that the current :meth:`run` stop after the current event."""
        self._stopped = True

    def clear(self) -> None:
        """Drop every pending event.  The clock is not reset."""
        self._queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6g}, pending={self.pending}, "
            f"processed={self._events_processed})"
        )
