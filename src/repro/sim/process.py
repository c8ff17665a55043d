"""Tick-driven processes on top of the event engine.

The ABE election algorithm is clock-driven: "at every clock tick" an idle node
flips a coin.  :class:`TickProcess` schedules those ticks according to a
node's :class:`~repro.sim.clock.LocalClock`, translating local tick intervals
into real-time event delays, one :meth:`~repro.sim.engine.Simulator.schedule`
call per tick.

:class:`SharedTickProcess` is the batched driver: members' ticks are
*bucketed per instant*, so every group of ticks landing at the same simulated
time rides a single heap entry.  Each member keeps its own (possibly
drifting) clock and computes its next tick exactly like a private
:class:`TickProcess` would, so tick *times* are bit-identical to the per-node
layout for arbitrary clocks; with drift-free unit-rate clocks all members
share every instant and the driver degenerates to one heap entry per
activation round.  What changes is engine-level event granularity (one event
per occupied instant instead of one per node), which is why ``batch_ticks``
on :func:`repro.core.runner.build_election_network` documents the semantics
contract.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.clock import LocalClock
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle, EventKind

__all__ = ["TickProcess", "SharedTickProcess", "SharedTickMembership"]


class TickProcess:
    """Clock ticks driven by a (possibly drifting) :class:`LocalClock`.

    Every ``local_period`` units of *local* time the callback fires.  Because
    the local clock may speed up or slow down within the bounds
    ``[s_low, s_high]``, consecutive real-time gaps between ticks vary; this is
    exactly the behaviour Definition 1(2) of the ABE model permits, and the
    election algorithm must remain correct under it.
    """

    def __init__(
        self,
        simulator: Simulator,
        clock: LocalClock,
        callback: Callable[[int], Optional[bool]],
        *,
        local_period: float = 1.0,
        kind: EventKind = EventKind.CLOCK_TICK,
    ) -> None:
        if local_period <= 0:
            raise ValueError(f"local_period must be positive, got {local_period}")
        self._simulator = simulator
        self._clock = clock
        self._callback = callback
        self._local_period = float(local_period)
        self._kind = kind
        self._count = 0
        self._stopped = False
        self._handle: EventHandle
        self._schedule_next()

    @property
    def ticks(self) -> int:
        """Number of ticks delivered so far."""
        return self._count

    @property
    def stopped(self) -> bool:
        """Whether the process has been stopped."""
        return self._stopped

    def stop(self) -> None:
        """Stop ticking; the pending tick (if any) is cancelled."""
        self._stopped = True
        self._handle.cancel()

    def _schedule_next(self) -> None:
        now = self._simulator.now
        real_delay = self._clock.real_duration_for_local(now, self._local_period)
        # Guard against a zero delay caused by floating point rounding: a zero
        # delay would livelock the simulator at a single instant.
        real_delay = max(real_delay, 1e-12)
        self._handle = self._simulator.schedule(real_delay, self._fire, kind=self._kind)

    def _fire(self) -> None:
        if self._stopped:
            return
        result = self._callback(self._count)
        self._count += 1
        if result is False or self._stopped:
            self._stopped = True
            return
        self._schedule_next()


class SharedTickMembership:
    """One callback's slot in a :class:`SharedTickProcess`.

    Duck-types the :class:`TickProcess` surface the election program uses
    (``stop()``, ``stopped``, ``ticks``), so a program can hold either
    interchangeably.
    """

    __slots__ = ("callback", "clock", "period", "count", "stopped", "_driver", "_bucket")

    def __init__(
        self,
        driver: "SharedTickProcess",
        callback: Callable[[int], Optional[bool]],
        clock: Optional[LocalClock],
        period: float,
    ) -> None:
        self._driver = driver
        self._bucket: Optional[_TickBucket] = None
        self.callback = callback
        self.clock = clock
        self.period = period
        self.count = 0
        self.stopped = False

    @property
    def ticks(self) -> int:
        """Number of ticks delivered to this member so far."""
        return self.count

    def stop(self) -> None:
        """Deregister from the driver; no further ticks are delivered."""
        if self.stopped:
            return
        self.stopped = True
        self._driver._member_stopped(self)


class _TickBucket:
    """Every member whose next tick lands at one instant, plus its heap entry."""

    __slots__ = ("time", "members", "live", "handle")

    def __init__(self, time: float, handle: EventHandle) -> None:
        self.time = time
        self.members: List[SharedTickMembership] = []
        self.live = 0
        self.handle = handle


class SharedTickProcess:
    """Tick driver sharing one heap entry per *instant* across its members.

    Each member keeps its own :class:`~repro.sim.clock.LocalClock` and local
    period, and its next tick time is computed exactly as a private
    :class:`TickProcess` would compute it (``real_duration_for_local`` from
    the previous tick's instant, clamped away from zero) -- so the sequence
    of tick *times* each member observes is bit-identical to the per-node
    layout, for arbitrary (also drifting) clocks.  Members whose next ticks
    land at the same instant are *bucketed*: the whole bucket rides a single
    engine event and fires in bucket-append order, which for members joined
    in uid order at time 0 is exactly the per-node firing order.

    With drift-free unit-rate clocks every member computes the same next
    instant, so the driver degenerates to one heap entry per activation
    round -- the fast path the election runner relies on.  With drifting
    clocks instants mostly diverge and the driver approaches one entry per
    member tick, i.e. it never does worse than per-node ticking.

    What changes against per-node ticking is engine-level accounting: the
    simulator processes one event per occupied instant, so
    ``events_processed`` differs, and at an instant shared by a tick bucket
    and a message delivery the *relative* order of the bucket's later
    members and the delivery can differ from the per-node interleaving.
    All simulation outcomes are preserved for delay models that never land
    a delivery exactly on a tick instant (continuous delays; see the
    ``batch_ticks`` documentation in :mod:`repro.core.runner`).

    A callback returning ``False`` or an explicit ``membership.stop()``
    removes the member; a bucket whose members all stopped cancels its
    pending event, keeping the queue small.  Every new instant gets a fresh
    bucket and one :meth:`~repro.sim.engine.Simulator.schedule` call.
    """

    def __init__(
        self,
        simulator: Simulator,
        *,
        period: float = 1.0,
        kind: EventKind = EventKind.CLOCK_TICK,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._simulator = simulator
        self._period = float(period)
        self._kind = kind
        self._buckets: Dict[float, _TickBucket] = {}
        self._live = 0
        self._rounds = 0

    @property
    def rounds(self) -> int:
        """Number of tick buckets fired so far."""
        return self._rounds

    @property
    def live_members(self) -> int:
        """Number of members still receiving ticks."""
        return self._live

    @property
    def pending_instants(self) -> int:
        """Number of distinct future instants currently armed."""
        return len(self._buckets)

    def join(
        self,
        callback: Callable[[int], Optional[bool]],
        *,
        clock: Optional[LocalClock] = None,
        period: Optional[float] = None,
    ) -> SharedTickMembership:
        """Register ``callback``; its first tick is one local period from now.

        ``clock`` translates the member's local ``period`` (default: the
        driver's period) into real-time delays exactly like a private
        :class:`TickProcess`; ``None`` means a drift-free unit-rate clock.
        A member joining from inside another member's tick callback is never
        swept in the firing bucket -- its first tick lies strictly in the
        future, exactly where a fresh :class:`TickProcess` would place it.
        """
        local_period = self._period if period is None else float(period)
        if local_period <= 0:
            raise ValueError(f"period must be positive, got {local_period}")
        membership = SharedTickMembership(self, callback, clock, local_period)
        self._live += 1
        self._schedule_next(membership)
        return membership

    # ------------------------------------------------------------- internals

    def _schedule_next(self, member: SharedTickMembership) -> None:
        now = self._simulator._now
        clock = member.clock
        if clock is None:
            delay = member.period
        else:
            delay = clock.real_duration_for_local(now, member.period)
            if delay < 1e-12:
                # Same guard as TickProcess: a zero delay caused by floating
                # point rounding would livelock the simulator at one instant.
                delay = 1e-12
        time = now + delay  # identical float to what the engine computes
        bucket = self._buckets.get(time)
        if bucket is None:
            handle = self._simulator.schedule(delay, self._fire, kind=self._kind)
            bucket = self._buckets[time] = _TickBucket(time, handle)
        bucket.members.append(member)
        bucket.live += 1
        member._bucket = bucket

    def _member_stopped(self, member: SharedTickMembership) -> None:
        self._live -= 1
        bucket = member._bucket
        if bucket is None:
            return
        member._bucket = None
        bucket.live -= 1
        if bucket.live == 0 and self._buckets.get(bucket.time) is bucket:
            # Nobody left at this instant: drop the bucket and cancel its
            # event (the stale heap entry is skipped at pop).
            del self._buckets[bucket.time]
            bucket.handle.cancel()

    def _fire(self) -> None:
        now = self._simulator._now
        bucket = self._buckets.pop(now, None)
        if bucket is None:  # pragma: no cover - defensive; stop() cancels
            return
        self._rounds += 1
        # The firing bucket was popped above, so re-bucketing inside the loop
        # always targets other buckets and never grows this member list.
        for member in bucket.members:
            if member.stopped:
                continue
            member._bucket = None
            result = member.callback(member.count)
            member.count += 1
            if result is False and not member.stopped:
                member.stopped = True
                self._live -= 1
                continue
            if member.stopped:  # the callback called stop() explicitly
                continue
            self._schedule_next(member)
