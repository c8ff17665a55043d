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

Hot-path design
---------------
The tick handler runs once per node and local time unit -- it dominates the
event count of every election -- so its bookkeeping mirrors what PR 2 did to
the message path:

* counters are plain integer attributes on the shared :class:`ElectionStatus`
  (a single ``+= 1``); the network's
  :class:`~repro.sim.monitor.MetricsCollector` reads them back through
  :meth:`~repro.sim.monitor.MetricsCollector.bind_external_sum`, so
  ``count()``/``counters()``/``summary()`` readers are unchanged and the
  string-keyed ``increment`` dictionary lookups are gone;
* the per-node coin flip is prebound (``self._rng_random``) and the
  activation probability is cached per value of ``d`` (schedules are pure
  functions of ``d`` by contract -- see
  :class:`~repro.core.activation.ActivationSchedule`), so a steady-state tick
  performs no attribute-chain walks, no method dispatch into the schedule and
  no exponentiation;
* tick scheduling itself is allocation-free: the per-node
  :class:`~repro.sim.process.TickProcess` re-arms one event record per tick,
  and under ``batch_ticks`` (see :func:`repro.core.runner.build_election_network`)
  a :class:`~repro.sim.process.SharedTickProcess` drives a whole activation
  round of nodes from a single heap entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.activation import ActivationSchedule, AdaptiveActivation
from repro.core.messages import HopMessage
from repro.network.node import Node, NodeProgram
from repro.sim.process import SharedTickProcess

__all__ = ["NodeState", "ElectionStatus", "AbeElectionProgram"]

#: The single outgoing port of a node in a unidirectional ring.
RING_PORT = 0


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

    The integer fields double as the run's hot-path counters: programs bump
    them with plain ``+= 1`` statements and the network's metrics collector
    exposes them read-only under the historical counter names (``"ticks"``,
    ``"activations"``, ``"knockout_messages"``, ``"hop_overflows"``,
    ``"leaders_elected"``) via :meth:`bind_metrics`.
    """

    leader_uid: Optional[int] = None
    election_time: Optional[float] = None
    leaders_elected: int = 0
    activations: int = 0
    knockouts: int = 0
    hop_overflows: int = 0
    ticks: int = 0

    @property
    def decided(self) -> bool:
        """Whether some node has declared itself leader."""
        return self.leader_uid is not None

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
    tick_driver:
        Optional :class:`~repro.sim.process.SharedTickProcess` batching this
        node's ticks with every peer tick landing at the same instant (one
        heap entry per occupied instant; one per activation round when all
        clocks are drift-free).  The runner injects it under
        ``batch_ticks=True``; when ``None`` the node runs its own
        :class:`~repro.sim.process.TickProcess`.
    """

    def __init__(
        self,
        status: ElectionStatus,
        schedule: Optional[ActivationSchedule] = None,
        tick_period: float = 1.0,
        purge_at_active: bool = True,
        stop_network_on_election: bool = True,
        tick_driver: Optional[SharedTickProcess] = None,
    ) -> None:
        super().__init__()
        if tick_period <= 0:
            raise ValueError("tick_period must be positive")
        self.status = status
        self.schedule = schedule if schedule is not None else AdaptiveActivation(0.3)
        self.tick_period = float(tick_period)
        self.purge_at_active = purge_at_active
        self.stop_network_on_election = stop_network_on_election
        self.tick_driver = tick_driver
        self.state = NodeState.IDLE
        self.d = 1
        self.messages_received = 0
        self.messages_forwarded = 0
        self.times_activated = 0
        self.times_knocked_out = 0
        # Hot-loop caches, completed at bind()/on_start() time.
        self._probability = 0.0
        self._rng_random = None

    # ------------------------------------------------------------------ wiring

    def bind(self, node: Node) -> None:
        """Bind to the node, prebind the coin flip and publish the counters."""
        super().bind(node)
        self._rng_random = node.rng.random
        self.status.bind_metrics(node.network.metrics)

    # ------------------------------------------------------------------ start

    def on_start(self) -> None:
        """Initialise the node (idle, ``d = 1``) and start the local clock ticks."""
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
        if self.tick_driver is not None:
            # Join order across nodes is on_start order (uid order), which is
            # exactly the per-node firing order at shared instants.  The
            # node's own clock travels with the membership, so drifting
            # clocks keep their private tick times.
            self._tick_process = self.tick_driver.join(
                self._on_tick,
                clock=self._require_node().clock,
                period=self.tick_period,
            )
        else:
            self.start_ticks(self._on_tick, local_period=self.tick_period)

    # ------------------------------------------------------------------- tick

    def _on_tick(self, tick_index: int) -> Optional[bool]:
        """One local clock tick: an idle node may spontaneously activate."""
        self.status.ticks += 1
        state = self.state
        if state is NodeState.PASSIVE or state is NodeState.LEADER:
            # Passive and leader are absorbing for the tick rule; stop ticking
            # to keep the event queue small.  (Active nodes keep ticking
            # because a knock-out returns them to idle.)
            return False
        if state is not NodeState.IDLE:
            return None
        if self._rng_random() < self._probability:
            self._activate()
        return None

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
        self.stop_ticks()
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
        if self.purge_at_active:
            self.state = NodeState.IDLE
            self.trace("state", state=str(self.state), d=self.d, hop=payload.hop)
            # The message is purged: nothing is forwarded.
            return
        # Ablation A2: no purging -- the active node still falls back to idle
        # but forwards the message as if it were passive, so tokens are never
        # removed from the ring.
        self.state = NodeState.IDLE
        self.trace("state", state=str(self.state), d=self.d, hop=payload.hop)
        self._forward(payload, knocked_out_idle=False)

    def _receive_while_leader(self, payload: HopMessage) -> None:
        """Leaders purge residual messages so the ring drains after the election."""
        self.trace("purge", hop=payload.hop)

    def _become_leader(self, payload: HopMessage) -> None:
        node = self._require_node()
        self.state = NodeState.LEADER
        self.stop_ticks()
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
