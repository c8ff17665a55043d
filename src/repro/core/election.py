"""The ABE election algorithm for anonymous, unidirectional rings (Section 3).

Every node runs the same program (anonymity: no identifiers are consulted) and
is in one of four states: **idle**, **active**, **passive** or **leader**.
Initially all nodes are idle and store ``d = 1``.  The behaviour, verbatim
from the paper:

* If A is idle, then at every clock tick, with probability
  ``1 - (1 - A0)^{d(A)}``, A becomes active, and in this case sends the
  message ``<1>``.
* If A receives a message ``<hop>``, it sets ``d(A) = max(d(A), hop)``.  In
  addition, depending on its current state:

  (i)   if A is idle, it becomes passive and sends ``<d(A) + 1>``;
  (ii)  if A is passive, it sends ``<d(A) + 1>``;
  (iii) if A is active, it becomes **leader** if ``hop = n``, and otherwise it
        becomes idle, purging the message in both cases.

Messages thus "knock out" idle nodes on their way; a message reaching an
active node either crowns it (after a full traversal, ``hop = n``) or knocks
it back to idle.

Two behaviours are not pinned down by the two-page announcement and are made
explicit (and configurable) here:

* **Messages arriving at a leader** are purged.  After the election exactly
  one node is the leader and every other node is idle or passive, so purging
  at the leader is what guarantees that residual in-flight messages drain.
* **Purging at active nodes** can be switched off (``purge_at_active=False``)
  to run the ablation A2, which demonstrates that purging is essential for the
  linear message complexity.

Activation: one draw per idle spell
-----------------------------------
The rule above flips a coin at every tick, but ``d`` -- and with it the
probability ``p = 1 - (1 - A0)^d`` -- changes only on a receipt, and a
receipt always ends the idle spell.  So the number of ticks an idle node
waits is Geometric(p), and the program draws it once per *idle spell*
(one uniform from the node's ``node/{uid}`` stream) and arms a single
activation timer for that tick, instead of flipping every coin:

* a spell starts at start-up and on every return to idle (knock-back; in
  the churn program also recovery, suspicion, epoch adoption and
  step-down);
* ticks lie on the node's local-clock grid ``C(anchor) + k * tick_period``,
  anchored when the node starts ticking and re-anchored when it restarts
  after knock-out, crowning or a crash stopped it;
* the timer fires before same-instant message deliveries (priority
  ``ACTIVATION_PRIORITY``), the vector core's "rounds win ties";
* knock-out, crowning and a crash (:meth:`AbeElectionProgram.halt`) cancel
  it;
* ``ElectionStatus.ticks`` counts, in closed form, the grid ticks inside
  each node's ticking intervals, so it keeps its per-tick meaning.

An election therefore costs O(messages) events, not O(n * ticks).  Drifting
clocks are mapped lazily (:meth:`~repro.sim.clock.LocalClock.reach`): the
timer wakes no earlier than the mapped horizon and re-aims until the map
covers the target tick.  Counters stay plain integers on the shared
:class:`ElectionStatus`, read back through
:meth:`~repro.sim.monitor.MetricsCollector.bind_external_sum`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.activation import ActivationSchedule, AdaptiveActivation
from repro.core.messages import HopMessage
from repro.network.node import Node, NodeProgram
from repro.sim.events import EventHandle

__all__ = ["NodeState", "ElectionStatus", "AbeElectionProgram"]

#: The single outgoing port of a node in a unidirectional ring.
RING_PORT = 0

#: Engine priority of activation timers: below the deliveries' 0, so a tick
#: fires before any message delivered at the same instant.
ACTIVATION_PRIORITY = -1


class NodeState(enum.Enum):
    """States of the election algorithm's per-node state machine."""

    IDLE = "idle"
    ACTIVE = "active"
    PASSIVE = "passive"
    LEADER = "leader"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class ElectionStatus:
    """Shared, observable status of one election run.

    A single instance is shared by all programs of a run (the runner injects
    it); the program that becomes leader fills it in, which gives the runner
    an O(1) termination check and the experiments a single place to read the
    outcome from.

    The integer fields double as the run's counters: programs bump them with
    plain ``+= 1`` statements and the network's metrics collector exposes
    them read-only under the historical counter names (``"ticks"``,
    ``"activations"``, ``"knockout_messages"``, ``"hop_overflows"``,
    ``"leaders_elected"``) via :meth:`bind_metrics`.  :attr:`ticks` is
    computed on read from the programs' ticking intervals.
    """

    leader_uid: Optional[int] = None
    election_time: Optional[float] = None
    leaders_elected: int = 0
    activations: int = 0
    knockouts: int = 0
    hop_overflows: int = 0

    def __post_init__(self) -> None:
        # Every program sharing this status registers itself at bind time;
        # an attribute, not a field, so results and reprs never walk it.
        self.programs: List["AbeElectionProgram"] = []

    @property
    def decided(self) -> bool:
        """Whether some node has declared itself leader."""
        return self.leader_uid is not None

    @property
    def ticks(self) -> int:
        """Local clock ticks consumed so far, summed over every node."""
        return sum(program.ticks for program in self.programs)

    @property
    def ticking(self) -> bool:
        """Whether some node is still ticking (idle or active)."""
        return any(program.ticking for program in self.programs)

    def bind_metrics(self, metrics) -> None:
        """Expose this status's plain counters through ``metrics`` (idempotent).

        Called by every program sharing the status; the collector keys the
        registration on the status object itself, so the counters are summed
        exactly once per status no matter how many nodes bind it.
        """
        metrics.bind_external_sum("ticks", self, lambda: self.ticks)
        metrics.bind_external_sum("activations", self, lambda: self.activations)
        metrics.bind_external_sum("knockout_messages", self, lambda: self.knockouts)
        metrics.bind_external_sum("hop_overflows", self, lambda: self.hop_overflows)
        metrics.bind_external_sum("leaders_elected", self, lambda: self.leaders_elected)


class AbeElectionProgram(NodeProgram):
    """Per-node program implementing the Section 3 election algorithm.

    Parameters
    ----------
    status:
        The shared :class:`ElectionStatus` of the run.
    schedule:
        Activation schedule; defaults to the paper's adaptive schedule with
        ``a0 = 0.3``.  Must be a pure function of ``d`` (the activation
        probability is cached per ``d`` value).
    tick_period:
        Local-clock period between activation attempts (1 local time unit by
        default, matching "at every clock tick").
    purge_at_active:
        Paper behaviour (``True``); ``False`` forwards messages at active
        nodes instead (ablation A2).
    stop_network_on_election:
        Whether to request a simulation stop the moment this node becomes
        leader (the runner's default).  Disable to let residual messages drain
        and observe the post-election quiescence.
    """

    def __init__(
        self,
        status: ElectionStatus,
        schedule: Optional[ActivationSchedule] = None,
        tick_period: float = 1.0,
        purge_at_active: bool = True,
        stop_network_on_election: bool = True,
    ) -> None:
        super().__init__()
        if tick_period <= 0:
            raise ValueError("tick_period must be positive")
        self.status = status
        self.schedule = schedule if schedule is not None else AdaptiveActivation(0.3)
        self.tick_period = float(tick_period)
        self.purge_at_active = purge_at_active
        self.stop_network_on_election = stop_network_on_election
        self.state = NodeState.IDLE
        self.d = 1
        self.messages_received = 0
        self.messages_forwarded = 0
        self.times_activated = 0
        self.times_knocked_out = 0
        self._probability = 0.0
        self._rng_random = None
        # Ticking interval: the grid's anchor reading on the local clock
        # (None while the node does not tick) and the ticks of closed
        # intervals.
        self._anchor: Optional[float] = None
        self._closed_ticks = 0
        # The idle spell's activation: its tick on the local clock and the
        # one pending timer (the activation itself, or a wake-up that
        # re-aims it on a drifting clock).
        self._target = 0.0
        self._timer: Optional[EventHandle] = None

    # ------------------------------------------------------------------ wiring

    def bind(self, node: Node) -> None:
        """Bind to the node, prebind the coin and publish the counters."""
        super().bind(node)
        self._rng_random = node.rng.random
        self._clock = node.clock
        self._simulator = node.network.simulator
        self.status.programs.append(self)
        self.status.bind_metrics(node.network.metrics)

    # ------------------------------------------------------------------ start

    def on_start(self) -> None:
        """Initialise the node (idle, ``d = 1``) and start its first idle spell."""
        ring_size = self.n
        if ring_size is None:
            raise RuntimeError(
                "the ABE election algorithm requires the ring size n to be known; "
                "configure the network with size_known=True"
            )
        if self.out_degree != 1:
            raise RuntimeError(
                "the ABE election algorithm runs on unidirectional rings "
                f"(expected exactly 1 outgoing port, found {self.out_degree})"
            )
        self.state = NodeState.IDLE
        self.d = 1
        self._probability = self.schedule.probability(1)
        self.trace("state", state=str(self.state), d=self.d)
        self._begin_idle_spell()

    # ---------------------------------------------------------------- ticking

    @property
    def ticking(self) -> bool:
        """Whether the node's clock ticks count (it is idle or active)."""
        return self._anchor is not None

    @property
    def ticks(self) -> int:
        """Ticks consumed so far: every grid tick of every ticking interval."""
        if self._anchor is None:
            return self._closed_ticks
        return self._closed_ticks + self._ticks_elapsed(self._simulator.now)

    def _ticks_elapsed(self, now: float) -> int:
        """Grid ticks in ``(anchor, now]`` -- a tick at ``now`` has fired."""
        reading = self._clock.local_time(now)
        anchor = self._anchor
        period = self.tick_period
        count = int((reading - anchor) // period)
        # Floor division may round across a tick; settle on the exact grid.
        while anchor + (count + 1) * period <= reading:
            count += 1
        while count > 0 and anchor + count * period > reading:
            count -= 1
        return count

    def _draw_wait(self) -> Optional[int]:
        """Ticks until activation, K ~ Geometric(p); ``None`` if ``p = 0``."""
        probability = self._probability
        uniform = self._rng_random()
        if probability >= 1.0:
            return 1
        if probability <= 0.0:
            return None
        return 1 + int(math.log(1.0 - uniform) / math.log1p(-probability))

    def _begin_idle_spell(self) -> None:
        """Draw this idle spell's wait and arm its one activation timer."""
        now = self._simulator.now
        if self._anchor is None:
            self._anchor = self._clock.local_time(now)
        elif self._timer is not None:
            self._timer.cancel()
            self._timer = None
        wait = self._draw_wait()
        if wait is None:
            return
        ticks = self._ticks_elapsed(now) + wait
        self._target = self._anchor + ticks * self.tick_period
        self._aim()

    def _aim(self) -> None:
        """Schedule the activation at its tick, or a wake-up closer to it."""
        simulator = self._simulator
        instant, exact = self._clock.reach(simulator.now, self._target)
        callback = self._activate if exact else self._aim
        self._timer = simulator.schedule_at(
            instant, callback, priority=ACTIVATION_PRIORITY
        )

    def _stop_ticking(self) -> None:
        """Close the ticking interval and cancel any pending activation."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._anchor is not None:
            self._closed_ticks += self._ticks_elapsed(self._simulator.now)
            self._anchor = None

    def halt(self) -> None:
        """Crash-stop: close the ticking interval, cancel the activation."""
        self._stop_ticking()

    def _activate(self) -> None:
        """Idle -> active transition: send ``<1>`` to the successor."""
        self.state = NodeState.ACTIVE
        self.times_activated += 1
        self.status.activations += 1
        self.trace("state", state=str(self.state), d=self.d)
        self.send(RING_PORT, HopMessage(hop=1))

    # ---------------------------------------------------------------- receive

    def on_receive(self, payload: HopMessage, port: int) -> None:
        """Handle an incoming ``<hop>`` message according to the current state."""
        if not isinstance(payload, HopMessage):
            raise TypeError(
                f"ABE election nodes only understand HopMessage, got {payload!r}"
            )
        self.messages_received += 1
        hop = payload.hop
        if hop > self.d:
            self.d = hop
            # d changed: refresh the cached activation probability (schedules
            # are pure in d, so this is the only recompute point).
            self._probability = self.schedule.probability(hop)

        if self.state is NodeState.IDLE:
            self._receive_while_idle(payload)
        elif self.state is NodeState.PASSIVE:
            self._receive_while_passive(payload)
        elif self.state is NodeState.ACTIVE:
            self._receive_while_active(payload)
        else:  # LEADER
            self._receive_while_leader(payload)

    def _forward(self, payload: HopMessage, knocked_out_idle: bool) -> None:
        new_hop = self.d + 1
        ring_size = self.n or 0
        if ring_size and new_hop > ring_size:
            # Reachable configurations never produce hop counters above n (the
            # hop domain is {1, ..., n}); count any occurrence so the
            # verification layer can flag it instead of silently mutating
            # behaviour.
            self.status.hop_overflows += 1
        forwarded = payload.forwarded(new_hop, knocked_out_idle)
        self.messages_forwarded += 1
        if knocked_out_idle:
            self.status.knockouts += 1
        self.send(RING_PORT, forwarded)

    def _receive_while_idle(self, payload: HopMessage) -> None:
        """Rule (i): become passive and forward ``<d + 1>``."""
        self.state = NodeState.PASSIVE
        self.times_knocked_out += 1
        self.trace("state", state=str(self.state), d=self.d, hop=payload.hop)
        self._stop_ticking()
        self._forward(payload, knocked_out_idle=True)

    def _receive_while_passive(self, payload: HopMessage) -> None:
        """Rule (ii): forward ``<d + 1>``."""
        self._forward(payload, knocked_out_idle=False)

    def _receive_while_active(self, payload: HopMessage) -> None:
        """Rule (iii): become leader on ``hop = n``, otherwise fall back to idle."""
        ring_size = self.n
        if ring_size is not None and payload.hop == ring_size:
            self._become_leader(payload)
            return
        self.state = NodeState.IDLE
        self.trace("state", state=str(self.state), d=self.d, hop=payload.hop)
        self._begin_idle_spell()
        if self.purge_at_active:
            # The message is purged: nothing is forwarded.
            return
        # Ablation A2: no purging -- the active node still falls back to idle
        # but forwards the message as if it were passive, so tokens are never
        # removed from the ring.
        self._forward(payload, knocked_out_idle=False)

    def _receive_while_leader(self, payload: HopMessage) -> None:
        """Leaders purge residual messages so the ring drains after the election."""
        self.trace("purge", hop=payload.hop)

    def _become_leader(self, payload: HopMessage) -> None:
        node = self._require_node()
        self.state = NodeState.LEADER
        self._stop_ticking()
        self.status.leader_uid = node.uid
        self.status.election_time = self.now
        self.status.leaders_elected += 1
        self.metrics.mark("leader_elected", self.now)
        self.trace("decide", state=str(self.state), hop=payload.hop)
        if self.stop_network_on_election:
            node.network.request_stop()

    # ----------------------------------------------------------------- result

    def result(self) -> NodeState:
        """The node's final state."""
        return self.state

    @property
    def is_leader(self) -> bool:
        """Whether this node ended up as the leader."""
        return self.state is NodeState.LEADER
