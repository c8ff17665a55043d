"""Faithful replica of the pre-refactor election core.

``bench_election_core.py``, ``scripts/bench_report.py`` and the differential
tests measure/verify the current election hot loop (plain integer counters on
the shared status, prebound coin flip, cached activation probability,
allocation-free tick rescheduling) against this replica of how the core
worked before (commit 19a8dd0):

* ``LegacyTickProcess`` -- one ``Simulator.schedule`` call per tick, i.e. a
  fresh ``Event`` + ``EventHandle`` per tick, and the old piecewise-segment
  clock walk per tick (the replica switches its node's :class:`~repro.sim.clock.LocalClock`
  off the identity fast path, restoring the one-segment-per-time-unit map the
  pre-refactor clock built even when drift-free);
* ``LegacyAbeElectionProgram`` -- string-keyed ``metrics.increment`` per
  tick/activation/knockout, ``self.metrics`` property-chain walks on the hot
  path, and a ``schedule.probability(self.d)`` recompute on every tick.

Both run on the *current* engine and network, so the comparison isolates the
election-core overhead (engine and message-path speedups are gated
separately).  Like ``legacy_engine.py`` and ``legacy_message_path.py``, this
file is a benchmark fixture: it must stay behaviourally faithful to the old
code, not get optimized.  Faithfulness is enforced, not assumed --
``tests/test_differential_election.py`` asserts that legacy and live runs
are bit-identical on every configuration the differential harness covers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.activation import ActivationSchedule, AdaptiveActivation
from repro.core.election import ElectionStatus, NodeState, RING_PORT
from repro.core.messages import HopMessage
from repro.core.runner import ElectionResult, _default_max_events
from repro.models.abe import ABEModel
from repro.network.delays import DelayDistribution, ExponentialDelay
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import unidirectional_ring
from repro.sim.clock import LocalClock
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle, EventKind

__all__ = ["LegacyTickProcess", "LegacyAbeElectionProgram", "legacy_run_election"]


class LegacyTickProcess:
    """The old tick scheduler: one ``schedule`` (Event + handle) per tick."""

    def __init__(
        self,
        simulator: Simulator,
        clock: LocalClock,
        callback: Callable[[int], Optional[bool]],
        *,
        local_period: float = 1.0,
        kind: EventKind = EventKind.CLOCK_TICK,
    ) -> None:
        self._simulator = simulator
        self._clock = clock
        self._callback = callback
        self._local_period = float(local_period)
        self._kind = kind
        self._count = 0
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        # Pre-refactor clocks had no identity fast path: every tick paid the
        # piecewise-segment lookup (and grew one segment per real time unit).
        # Forcing the flag off restores that cost -- bit-identical results,
        # the fast path *is* the segment walk's arithmetic for unit clocks.
        clock._identity = False
        self._schedule_next()

    @property
    def ticks(self) -> int:
        return self._count

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    def _schedule_next(self) -> None:
        now = self._simulator.now
        real_delay = self._clock.real_duration_for_local(now, self._local_period)
        real_delay = max(real_delay, 1e-12)
        # The pre-refactor path: a fresh Event and EventHandle every tick.
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


class LegacyAbeElectionProgram(NodeProgram):
    """The pre-refactor Section 3 election program, verbatim in structure."""

    def __init__(
        self,
        status: ElectionStatus,
        schedule: Optional[ActivationSchedule] = None,
        tick_period: float = 1.0,
        purge_at_active: bool = True,
        stop_network_on_election: bool = True,
    ) -> None:
        super().__init__()
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

    # No bind() override: the old program did not publish externally bound
    # counters -- every count below goes through the string-keyed collector.

    def on_start(self) -> None:
        self.state = NodeState.IDLE
        self.d = 1
        self.trace("state", state=str(self.state), d=self.d)
        node = self._require_node()
        self._tick_process = LegacyTickProcess(
            node.network.simulator,
            node.clock,
            self._on_tick,
            local_period=self.tick_period,
        )

    def _on_tick(self, tick_index: int) -> Optional[bool]:
        self.status.ticks += 1
        self.metrics.increment("ticks")
        if self.state is NodeState.PASSIVE or self.state is NodeState.LEADER:
            return False
        if self.state is not NodeState.IDLE:
            return None
        probability = self.schedule.probability(self.d)
        if self.rng.random() < probability:
            self._activate()
        return None

    def _activate(self) -> None:
        self.state = NodeState.ACTIVE
        self.times_activated += 1
        self.status.activations += 1
        self.metrics.increment("activations")
        self.trace("state", state=str(self.state), d=self.d)
        self.send(RING_PORT, HopMessage(hop=1))

    def on_receive(self, payload: HopMessage, port: int) -> None:
        if not isinstance(payload, HopMessage):
            raise TypeError(f"unexpected payload {payload!r}")
        self.messages_received += 1
        self.d = max(self.d, payload.hop)
        if self.state is NodeState.IDLE:
            self._receive_while_idle(payload)
        elif self.state is NodeState.PASSIVE:
            self._receive_while_passive(payload)
        elif self.state is NodeState.ACTIVE:
            self._receive_while_active(payload)
        else:
            self.trace("purge", hop=payload.hop)

    def _forward(self, payload: HopMessage, knocked_out_idle: bool) -> None:
        new_hop = self.d + 1
        ring_size = self.n or 0
        if ring_size and new_hop > ring_size:
            self.status.hop_overflows += 1
            self.metrics.increment("hop_overflows")
        forwarded = payload.forwarded(new_hop, knocked_out_idle)
        self.messages_forwarded += 1
        if knocked_out_idle:
            self.status.knockouts += 1
            self.metrics.increment("knockout_messages")
        self.send(RING_PORT, forwarded)

    def _receive_while_idle(self, payload: HopMessage) -> None:
        self.state = NodeState.PASSIVE
        self.times_knocked_out += 1
        self.trace("state", state=str(self.state), d=self.d, hop=payload.hop)
        self.stop_ticks()
        self._forward(payload, knocked_out_idle=True)

    def _receive_while_passive(self, payload: HopMessage) -> None:
        self._forward(payload, knocked_out_idle=False)

    def _receive_while_active(self, payload: HopMessage) -> None:
        ring_size = self.n
        if ring_size is not None and payload.hop == ring_size:
            self._become_leader(payload)
            return
        self.state = NodeState.IDLE
        self.trace("state", state=str(self.state), d=self.d, hop=payload.hop)
        if not self.purge_at_active:
            self._forward(payload, knocked_out_idle=False)

    def _become_leader(self, payload: HopMessage) -> None:
        node = self._require_node()
        self.state = NodeState.LEADER
        self.stop_ticks()
        self.status.leader_uid = node.uid
        self.status.election_time = self.now
        self.status.leaders_elected += 1
        self.metrics.increment("leaders_elected")
        self.metrics.mark("leader_elected", self.now)
        self.trace("decide", state=str(self.state), hop=payload.hop)
        if self.stop_network_on_election:
            node.network.request_stop()

    def result(self) -> NodeState:
        return self.state

    @property
    def is_leader(self) -> bool:
        return self.state is NodeState.LEADER


def legacy_build_election_network(
    n: int,
    *,
    a0: float = 0.3,
    delay: Optional[DelayDistribution] = None,
    seed: int = 0,
    schedule: Optional[ActivationSchedule] = None,
    fifo: bool = False,
    purge_at_active: bool = True,
    tick_period: float = 1.0,
    enable_trace: bool = False,
) -> tuple:
    """The legacy counterpart of ``build_election_network`` (same config)."""
    delay_model = delay if delay is not None else ExponentialDelay(mean=1.0)
    schedule = schedule if schedule is not None else AdaptiveActivation(a0)
    status = ElectionStatus()
    config = NetworkConfig(
        topology=unidirectional_ring(n),
        delay_model=delay_model,
        seed=seed,
        fifo=fifo,
        size_known=True,
        enable_trace=enable_trace,
    )
    mean = delay_model.mean()
    ABEModel(expected_delay_bound=mean if mean > 0 else 1.0).validate_config(config)
    network = Network(
        config,
        lambda uid: LegacyAbeElectionProgram(
            status=status,
            schedule=schedule,
            tick_period=tick_period,
            purge_at_active=purge_at_active,
        ),
    )
    return network, status


def legacy_run_election(
    n: int,
    *,
    a0: float = 0.3,
    seed: int = 0,
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
    **build_kwargs,
) -> ElectionResult:
    """Run one election on the legacy core; returns the usual result record."""
    network, status = legacy_build_election_network(n, a0=a0, seed=seed, **build_kwargs)
    if max_events is None:
        max_events = _default_max_events(n)
    network.stop_when(lambda: status.decided)
    network.run(until=max_time, max_events=max_events)
    return ElectionResult(
        n=network.n,
        elected=status.decided,
        leader_uid=status.leader_uid,
        election_time=status.election_time,
        messages_total=network.messages_sent(),
        knockout_messages=status.knockouts,
        activations=status.activations,
        ticks=status.ticks,
        hop_overflows=status.hop_overflows,
        events_processed=network.simulator.events_processed,
        seed=seed,
        a0=a0,
        leaders_elected=status.leaders_elected,
    )
