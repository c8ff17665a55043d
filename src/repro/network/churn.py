"""Scripted dynamic-network faults: timed crash/recover and link churn.

:mod:`repro.network.faults` models *terminal* faults: a crashed node never
comes back and a lossy channel stays lossy.  This module adds the dynamic
half of the story -- a :class:`FaultScript` of timed, deterministic fault
events executed by a :class:`ScheduledFaultInjector` that can *reverse* what
it applies:

* :class:`CrashEvent` / :class:`RecoverEvent` -- a crash installs the same
  delivery swallow and program halt as :class:`~repro.network.faults.CrashStopFault`;
  the paired recovery removes the swallow (the ``deliver`` instance attribute
  is deleted, restoring the class method) and hands control back to the
  program via its optional ``on_recover()`` hook.
* :class:`LinkDownEvent` / :class:`LinkUpEvent` -- a link-down saves the
  channel's ``_deliver`` and replaces it with a counter-only dropper; the
  paired link-up restores the saved function.  Channels bind ``_deliver`` at
  *send* time (see :meth:`~repro.network.channel.Channel.transmit`), so
  messages already in flight when the link goes down still arrive -- only
  messages sent during the outage are lost.  This models a cut transmission
  medium, not retroactive message destruction.
* :class:`PeriodicChurn` -- a rate-driven churn process expanded at install
  time into concrete crash events, drawing exponential inter-arrival gaps and
  uniform victims from the network's seed-derived ``"churn"`` stream, so the
  realized schedule is a pure function of the run's seed.

Targets may be symbolic: ``CrashEvent(node="leader", ...)`` resolves the
*current* leader at fire time (retrying on a fixed cadence while no leader
exists yet), which is how "kill whoever is leader at t" is expressed without
knowing the election outcome in advance.

The :class:`StabilizationMonitor` records per-disruption metrics for
churn-aware elections: when the ring loses its last live leader an *episode*
opens, and the crowning that closes it yields the leader-downtime,
time-to-restabilize (measured from the causal disruption) and message cost of
that re-election.

One structural fact matters for interpreting results: a unidirectional ring
with any node down is *partitioned* -- no token can complete the ``hop = n``
traversal that crowns a leader while a node swallows deliveries.  Re-elections
triggered during an outage therefore complete only after the recovery, which
is why quiescent scripts (every crash eventually recovers, every link comes
back up) are the ones with termination guarantees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.network.channel import Channel
from repro.network.faults import FaultInjector
from repro.network.network import Network

__all__ = [
    "CrashEvent",
    "RecoverEvent",
    "LinkDownEvent",
    "LinkUpEvent",
    "PeriodicChurn",
    "FaultScript",
    "ScheduledFaultInjector",
    "StabilizationMonitor",
]

#: Symbolic crash target: resolve the current leader at fire time.
LEADER = "leader"


def _check_time(time: float) -> None:
    if time < 0:
        raise ValueError(f"event time must be non-negative, got {time}")


@dataclass(frozen=True)
class CrashEvent:
    """Crash a node at ``time``; with ``downtime`` it recovers that much later.

    ``node`` is a simulation uid or the symbolic string ``"leader"``, which
    resolves to whoever leads when the event fires (the injector retries on a
    fixed cadence while no leader exists).  Symbolic targets *require* a
    ``downtime`` to be quiescent -- a matching :class:`RecoverEvent` cannot
    name a node that is only known at fire time.
    """

    node: Union[int, str]
    time: float
    downtime: Optional[float] = None

    def __post_init__(self) -> None:
        _check_time(self.time)
        if isinstance(self.node, str) and self.node != LEADER:
            raise ValueError(
                f"symbolic crash target must be {LEADER!r}, got {self.node!r}"
            )
        if self.downtime is not None and self.downtime <= 0:
            raise ValueError(f"downtime must be positive, got {self.downtime}")


@dataclass(frozen=True)
class RecoverEvent:
    """Recover a previously crashed node at ``time`` (no-op if it is up)."""

    node: int
    time: float

    def __post_init__(self) -> None:
        _check_time(self.time)


@dataclass(frozen=True)
class LinkDownEvent:
    """Cut channel ``channel`` at ``time``; with ``duration`` it re-arms later."""

    channel: int
    time: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_time(self.time)
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class LinkUpEvent:
    """Restore a previously cut channel at ``time`` (no-op if it is up)."""

    channel: int
    time: float

    def __post_init__(self) -> None:
        _check_time(self.time)


@dataclass(frozen=True)
class PeriodicChurn:
    """A rate-driven churn process: ``count`` crash-recover cycles.

    Expanded at install time into concrete :class:`CrashEvent`\\ s: starting at
    ``start``, inter-crash gaps are exponential with mean ``interval`` and each
    victim is drawn uniformly from the ring (or is the symbolic leader when
    ``target="leader"``), all from the run's seed-derived ``"churn"`` RNG
    stream.  Every crash carries ``downtime``, so the process is always
    eventually quiescent.
    """

    interval: float
    count: int
    downtime: float
    start: float = 0.0
    target: str = "any"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.downtime <= 0:
            raise ValueError(f"downtime must be positive, got {self.downtime}")
        _check_time(self.start)
        if self.target not in ("any", LEADER):
            raise ValueError(
                f"target must be 'any' or {LEADER!r}, got {self.target!r}"
            )

    def expand(self, n: int, rng: random.Random) -> List[CrashEvent]:
        """The concrete crash events this process realizes for an ``n``-ring."""
        events: List[CrashEvent] = []
        time = self.start
        for _ in range(self.count):
            time += rng.expovariate(1.0 / self.interval)
            node: Union[int, str] = (
                LEADER if self.target == LEADER else rng.randrange(n)
            )
            events.append(CrashEvent(node=node, time=time, downtime=self.downtime))
        return events


#: The concrete (non-periodic) event types a script expands into.
ConcreteEvent = Union[CrashEvent, RecoverEvent, LinkDownEvent, LinkUpEvent]
ScriptEvent = Union[ConcreteEvent, PeriodicChurn]


@dataclass(frozen=True)
class FaultScript:
    """A deterministic schedule of fault events plus churn-detection knobs.

    ``heartbeat_interval`` / ``leader_timeout`` override the model-derived
    defaults of :meth:`repro.models.abe.ABEModel.churn_timeouts` for the
    churn-aware election built on this script (``None`` keeps the defaults).
    """

    events: Tuple[ScriptEvent, ...] = ()
    heartbeat_interval: Optional[float] = None
    leader_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        known = (CrashEvent, RecoverEvent, LinkDownEvent, LinkUpEvent, PeriodicChurn)
        for event in self.events:
            if not isinstance(event, known):
                raise ValueError(f"unknown fault-script event {event!r}")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.leader_timeout is not None and self.leader_timeout <= 0:
            raise ValueError("leader_timeout must be positive")

    def expand(self, n: int, rng: random.Random) -> List[ConcreteEvent]:
        """Concrete events in deterministic order (stable sort by time).

        Periodic processes are realized through ``rng``; everything else
        passes through.  Same ``(script, n, rng state)`` -- same expansion,
        which is what keeps churn trials pure functions of their seed.
        """
        concrete: List[ConcreteEvent] = []
        for event in self.events:
            if isinstance(event, PeriodicChurn):
                concrete.extend(event.expand(n, rng))
            else:
                concrete.append(event)
        concrete.sort(key=lambda e: e.time)  # stable: ties keep script order
        return concrete

    @property
    def eventually_quiescent(self) -> bool:
        """Whether every disruption is eventually reversed.

        True when each crash carries a ``downtime`` or a later
        :class:`RecoverEvent` for the same concrete node, and each link-down
        carries a ``duration`` or a later :class:`LinkUpEvent`.  Only
        quiescent scripts guarantee the churn-aware election terminates with
        a unique live leader (see the module docstring on ring partition).
        """
        for event in self.events:
            if isinstance(event, PeriodicChurn):
                continue  # always carries a downtime
            if isinstance(event, CrashEvent) and event.downtime is None:
                if isinstance(event.node, str):
                    return False  # fire-time target: no recover can name it
                if not any(
                    isinstance(other, RecoverEvent)
                    and other.node == event.node
                    and other.time >= event.time
                    for other in self.events
                ):
                    return False
            if isinstance(event, LinkDownEvent) and event.duration is None:
                if not any(
                    isinstance(other, LinkUpEvent)
                    and other.channel == event.channel
                    and other.time >= event.time
                    for other in self.events
                ):
                    return False
        return True


class ScheduledFaultInjector(FaultInjector):
    """A schedule-aware :class:`~repro.network.faults.FaultInjector`.

    Executes a :class:`FaultScript` against a built network and *reverses*
    what it applies: ``nodes_crashed`` tracks the **currently** crashed set
    (the metric of the same name follows), crash reversal deletes the
    ``deliver`` swallow, and link reversal restores the saved channel
    ``_deliver``.  Programs may expose two optional hooks:

    * ``on_crash() -> bool`` -- called after the swallow is installed and the
      program halted; returns whether the node was the leader.
    * ``on_recover()`` -- called after delivery is restored; the program
      re-enters the computation (for the churn-aware election: as an idle
      non-leader candidate).

    ``quiescent`` is True once every scheduled directive (including the
    recoveries spawned by ``downtime``/``duration``) has fired -- the stop
    predicate of churn elections combines it with "exactly one live leader".
    """

    #: Retry cadence for symbolic ``"leader"`` targets while no leader exists.
    LEADER_RETRY = 1.0

    def __init__(
        self,
        network: Network,
        script: FaultScript,
        *,
        status: Optional[Any] = None,
        monitor: Optional["StabilizationMonitor"] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(network=network, rng=rng)
        self.script = script
        self.status = status
        self.monitor = monitor
        self.pending = 0
        self.crashes_applied = 0
        self.recoveries = 0
        self.link_outages = 0
        self._installed = False
        self._link_saved: Dict[int, Any] = {}

    # ---------------------------------------------------------------- install

    def install(self) -> int:
        """Expand the script and schedule every directive; returns the count.

        Periodic processes draw from the network's ``"churn"`` stream -- a
        dedicated stream so scripted churn never perturbs the ``"faults"``
        stream the message-loss coin flips use.
        """
        if self._installed:
            raise RuntimeError("fault script already installed")
        self._installed = True
        churn_rng = self.network.random_source.stream("churn")
        events = self.script.expand(self.network.n, churn_rng)
        simulator = self.network.simulator
        for event in events:
            self._validate(event)
            if isinstance(event, CrashEvent):
                handler = partial(self._fire_crash, event)
            elif isinstance(event, RecoverEvent):
                handler = partial(self._fire_recover_uid, int(event.node))
            elif isinstance(event, LinkDownEvent):
                handler = partial(self._fire_link_down, event)
            else:
                handler = partial(self._fire_link_up_id, int(event.channel))
            self.pending += 1
            simulator.schedule_at(event.time, handler)
        return len(events)

    def _validate(self, event: ConcreteEvent) -> None:
        if isinstance(event, (CrashEvent, RecoverEvent)):
            node = event.node
            if isinstance(node, int) and not (0 <= node < self.network.n):
                raise ValueError(f"node {node} does not exist")
        else:
            channel = event.channel
            if not (0 <= channel < len(self.network.channels)):
                raise ValueError(f"channel {channel} does not exist")

    @property
    def quiescent(self) -> bool:
        """Whether every scheduled directive (and spawned reversal) has fired."""
        return self._installed and self.pending == 0

    # ------------------------------------------------------------------ crash

    def _fire_crash(
        self, event: CrashEvent, uid: Optional[int] = None, requeued: bool = False
    ) -> None:
        simulator = self.network.simulator
        if uid is None:
            uid = self._resolve(event.node)
            if uid is None:
                # No (live) leader to kill yet: keep the directive pending and
                # re-check on a fixed cadence.  Deterministic: the retry time
                # depends only on simulation state.
                simulator.schedule_at(
                    simulator.now + self.LEADER_RETRY, partial(self._fire_crash, event)
                )
                return
        node = self.network.nodes[uid]
        if not requeued and simulator.now == 0.0:
            # Same-instant requeue: see FaultInjector._crash_now.  Keeping the
            # requeue at the directive level preserves the downtime pairing.
            simulator.schedule_at(0.0, partial(self._fire_crash, event, uid, True))
            return
        applied = self._crash_apply(node)
        if applied and event.downtime is not None:
            self.pending += 1
            simulator.schedule_at(
                simulator.now + event.downtime, partial(self._fire_recover_uid, uid)
            )
        self.pending -= 1

    def _resolve(self, target: Union[int, str]) -> Optional[int]:
        if isinstance(target, int):
            return target
        leader_uid = getattr(self.status, "leader_uid", None)
        if leader_uid is None or leader_uid in self.nodes_crashed:
            return None
        return leader_uid

    def _crash_apply(self, node) -> bool:
        applied = super()._crash_apply(node)
        if not applied:
            return False
        self.crashes_applied += 1
        was_leader = False
        hook = getattr(node.program, "on_crash", None)
        if hook is not None:
            was_leader = bool(hook())
        if self.monitor is not None:
            self.monitor.record_crash(self.network.simulator.now, node.uid, was_leader)
        return True

    # ---------------------------------------------------------------- recover

    def _fire_recover_uid(self, uid: int) -> None:
        node = self.network.nodes[uid]
        if uid in self.nodes_crashed:
            self.nodes_crashed.remove(uid)
            # Reversal of the crash swallow: Node.deliver is a class method
            # shadowed by an instance attribute; deleting the shadow restores
            # the normal delivery path, in-flight messages included.
            node.__dict__.pop("deliver", None)
            self.recoveries += 1
            self.network.tracer.record(self.network.simulator.now, "recover", uid)
            hook = getattr(node.program, "on_recover", None)
            if hook is not None:
                hook()
            if self.monitor is not None:
                self.monitor.record_recover(self.network.simulator.now, uid)
        self.pending -= 1

    # ------------------------------------------------------------------- link

    def _fire_link_down(self, event: LinkDownEvent) -> None:
        channel_id = int(event.channel)
        simulator = self.network.simulator
        if channel_id not in self._link_saved:
            channel = self.network.channels[channel_id]
            self._link_saved[channel_id] = channel._deliver
            channel._deliver = partial(self._drop_on_down_link, channel)
            self.link_outages += 1
            self.network.tracer.record(
                simulator.now, "link-down", channel.destination.uid, channel=channel_id
            )
            if self.monitor is not None:
                self.monitor.record_link_down(simulator.now, channel_id)
        if event.duration is not None:
            self.pending += 1
            simulator.schedule_at(
                simulator.now + event.duration,
                partial(self._fire_link_up_id, channel_id),
            )
        self.pending -= 1

    def _drop_on_down_link(self, channel: Channel, envelope) -> None:
        # Send-time binding means only messages *sent during* the outage land
        # here; in-flight messages deliver through the saved function.
        self.messages_dropped += 1
        self.network.tracer.record(
            self.network.simulator.now,
            "link-drop",
            channel.destination.uid,
            sender=channel.source.uid,
            channel=channel.channel_id,
            payload=envelope.payload,
        )

    def _fire_link_up_id(self, channel_id: int) -> None:
        saved = self._link_saved.pop(channel_id, None)
        if saved is not None:
            channel = self.network.channels[channel_id]
            channel._deliver = saved
            self.network.tracer.record(
                self.network.simulator.now,
                "link-up",
                channel.destination.uid,
                channel=channel_id,
            )
            if self.monitor is not None:
                self.monitor.record_link_up(self.network.simulator.now, channel_id)
        self.pending -= 1


class StabilizationMonitor:
    """Per-disruption stabilization metrics of a churn-aware election.

    The injector reports disruptions (crash / link-down) and the election
    programs report leadership transitions (crowned / deposed / leader
    crashed).  When the count of live leaders drops to zero an *episode*
    opens; the crowning that closes it records:

    * ``downtime`` -- leaderless duration (loss to re-crown),
    * ``time_to_restabilize`` -- from the causal disruption (the last
      disruption at or before the loss) to the re-crown, and
    * ``messages`` -- network messages sent during the episode (heartbeats
      and re-election traffic alike).
    """

    def __init__(self) -> None:
        self.network: Optional[Network] = None
        self.crashes = 0
        self.recoveries = 0
        self.link_outages = 0
        self.disruptions: List[Tuple[float, str, int]] = []
        self.episodes: List[Dict[str, float]] = []
        self.first_election_time: Optional[float] = None
        self._live = 0
        self._lost_at: Optional[float] = None
        self._trigger = 0.0
        self._messages_at_loss = 0
        self._last_disruption: Optional[float] = None

    def attach(self, network: Network) -> None:
        """Bind the network whose message counter episodes snapshot."""
        self.network = network

    def _messages(self) -> int:
        return self.network.messages_sent() if self.network is not None else 0

    # ------------------------------------------------------------ disruptions

    def record_crash(self, time: float, uid: int, was_leader: bool) -> None:
        self.crashes += 1
        self.disruptions.append((time, "crash", uid))
        self._last_disruption = time
        if was_leader:
            self._live -= 1
            if self._live <= 0:
                self._leader_lost(time)

    def record_recover(self, time: float, uid: int) -> None:
        self.recoveries += 1

    def record_link_down(self, time: float, channel_id: int) -> None:
        self.link_outages += 1
        self.disruptions.append((time, "link-down", channel_id))
        self._last_disruption = time

    def record_link_up(self, time: float, channel_id: int) -> None:
        pass

    # ------------------------------------------------------------- leadership

    def record_crowned(self, time: float, uid: int, epoch: int) -> None:
        if self.first_election_time is None:
            self.first_election_time = time
        self._live += 1
        if self._live == 1 and self._lost_at is not None:
            self.episodes.append(
                dict(
                    lost_at=self._lost_at,
                    trigger=self._trigger,
                    recrowned_at=time,
                    downtime=time - self._lost_at,
                    time_to_restabilize=time - self._trigger,
                    messages=float(self._messages() - self._messages_at_loss),
                )
            )
            self._lost_at = None

    def record_deposed(self, time: float, uid: int) -> None:
        self._live -= 1
        if self._live <= 0:
            self._leader_lost(time)

    def _leader_lost(self, time: float) -> None:
        if self._lost_at is not None:
            return
        self._lost_at = time
        trigger = self._last_disruption
        self._trigger = trigger if trigger is not None and trigger <= time else time
        self._messages_at_loss = self._messages()

    # ----------------------------------------------------------------- report

    @property
    def live_leaders(self) -> int:
        """The monitor's mirror of the current live-leader count."""
        return self._live

    def summary(self) -> Dict[str, float]:
        """Aggregate the per-disruption records into flat result fields."""
        downtimes = [episode["downtime"] for episode in self.episodes]
        restabilize = [episode["time_to_restabilize"] for episode in self.episodes]
        messages = [episode["messages"] for episode in self.episodes]
        return dict(
            crashes=self.crashes,
            recoveries=self.recoveries,
            link_outages=self.link_outages,
            disruptions=len(self.disruptions),
            re_elections=len(self.episodes),
            leader_downtime=float(sum(downtimes)),
            mean_time_to_restabilize=(
                sum(restabilize) / len(restabilize) if restabilize else 0.0
            ),
            max_time_to_restabilize=max(restabilize) if restabilize else 0.0,
            mean_messages_per_re_election=(
                sum(messages) / len(messages) if messages else 0.0
            ),
        )
