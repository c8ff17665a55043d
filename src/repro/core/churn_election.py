"""Churn-aware ABE election: epochs, heartbeats, and re-election.

The Section 3 algorithm elects once on a static ring and stops.  Under the
scripted churn of :mod:`repro.network.churn` three new things must work:

* **Leader loss must be detected.**  The elected leader circulates a
  :class:`Heartbeat` every ``heartbeat_interval``; every non-leader arms a
  liveness timer (first at knock-out, then re-armed per heartbeat) and treats
  ``leader_timeout`` without one as a dead leader.  Both knobs default to the
  model-derived :meth:`repro.models.abe.ABEModel.churn_timeouts` -- the ABE
  bounds are exactly what makes a meaningful timeout computable.
* **Re-elections must not be confused by stale state.**  Every token is an
  :class:`EpochHopMessage`; a node that suspects the leader bumps its epoch,
  resets to idle with ``d = 1`` and starts a fresh idle spell.  Stale-epoch
  tokens are purged on receipt, higher-epoch tokens are adopted (the adopter
  also resets ``d = 1`` -- a late joiner carrying an inflated ``d`` could
  otherwise forward ``hop > n`` counters and crown nobody, or worse, crown
  early).  A
  leader receiving a *foreign* same-epoch heartbeat has found a split brain
  and steps down into a fresh epoch (its own heartbeats never return: they
  carry ``ttl = n - 1``).
* **Recovered nodes re-enter as candidates.**  The scheduled injector calls
  ``on_recover()`` after restoring delivery: the program resets to idle with
  ``d = 1`` in its current epoch and starts ticking again on a fresh grid,
  exactly the non-leader re-entry the dynamic-network arc asks for.

One structural consequence of the ring (worth internalizing before reading
stabilization numbers): while *any* node is crashed the ring is partitioned --
no token can complete the ``hop = n`` traversal, so a re-election started
during an outage can only finish after the recovery.  Leader-downtime under a
crash-recover script is therefore bounded below by the remaining outage, and
quiescent scripts are the ones with a termination guarantee.

Every send allocates a fresh epoch-stamped message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.activation import ActivationSchedule, AdaptiveActivation
from repro.core.analysis import recommended_a0
from repro.core.election import NodeState, ElectionStatus, AbeElectionProgram, RING_PORT
from repro.core.messages import HopMessage
from repro.core.runner import ElectionResult, _default_max_events
from repro.models.abe import ABEModel
from repro.network.churn import FaultScript, ScheduledFaultInjector, StabilizationMonitor
from repro.network.delays import DelayDistribution, ExponentialDelay
from repro.network.network import Network, NetworkConfig
from repro.network.topology import unidirectional_ring
from repro.sim.clock import ClockDriftModel

__all__ = [
    "EpochHopMessage",
    "Heartbeat",
    "ChurnElectionStatus",
    "ChurnAwareElectionProgram",
    "ChurnElectionResult",
    "build_churn_election_network",
    "run_churn_election",
]


@dataclass(frozen=True)
class EpochHopMessage(HopMessage):
    """A ``<hop>`` token stamped with the election epoch that sent it."""

    epoch: int = 0

    def forwarded(self, new_hop: int, knocked_out_idle: bool) -> "EpochHopMessage":
        return EpochHopMessage(
            hop=new_hop,
            token_id=self.token_id,
            knockout=self.knockout or knocked_out_idle,
            epoch=self.epoch,
        )


@dataclass(frozen=True)
class Heartbeat:
    """The leader's liveness beacon, forwarded around the ring.

    ``ttl`` starts at ``n - 1`` so the heartbeat visits every *other* node
    exactly once and is never delivered back to the leader that sent it (a
    heartbeat arriving at a same-epoch leader is therefore proof of a second
    leader, not an echo).
    """

    epoch: int
    ttl: int


@dataclass
class ChurnElectionStatus(ElectionStatus):
    """Election status extended with churn bookkeeping.

    ``live_leaders`` counts leaders that are crowned, not crashed and not
    deposed -- the stop predicate of a churn run is "script quiescent and
    exactly one live leader".  ``epoch`` is the highest epoch any node has
    reached; ``suspicions`` counts liveness timeouts that bumped an epoch.
    """

    epoch: int = 0
    live_leaders: int = 0
    heartbeats: int = 0
    suspicions: int = 0

    COUNTERS = ElectionStatus.COUNTERS + (
        ("heartbeats", "heartbeats"),
        ("suspicions", "suspicions"),
        ("live_leaders", "live_leaders"),
    )


class ChurnAwareElectionProgram(AbeElectionProgram):
    """The Section 3 program plus epochs, heartbeats and crash/recover hooks.

    In a static run (no churn events fire, no timeout expires) the epoch
    stays 0 everywhere and the state machine reduces exactly to the parent's;
    the only behavioural additions are the heartbeats the crowned leader
    emits and the liveness timers waiting for them.
    """

    def __init__(
        self,
        status: ChurnElectionStatus,
        *,
        heartbeat_interval: float,
        leader_timeout: float,
        monitor: Optional[StabilizationMonitor] = None,
        schedule: Optional[ActivationSchedule] = None,
        tick_period: float = 1.0,
        purge_at_active: bool = True,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if leader_timeout <= heartbeat_interval:
            raise ValueError(
                "leader_timeout must exceed heartbeat_interval, got "
                f"timeout={leader_timeout} <= interval={heartbeat_interval}"
            )
        super().__init__(
            status=status,
            schedule=schedule,
            tick_period=tick_period,
            purge_at_active=purge_at_active,
            # A churn run stops on "quiescent script + one live leader", not
            # on the first crowning.
            stop_network_on_election=False,
        )
        self.status: ChurnElectionStatus = status
        self.heartbeat_interval = float(heartbeat_interval)
        self.leader_timeout = float(leader_timeout)
        self.monitor = monitor
        self.epoch = 0
        self.crashed = False
        self._heartbeat_timer = None
        self._liveness_timer = None

    # ------------------------------------------------------------------ hooks

    def on_crash(self) -> bool:
        """Injector hook: freeze local state; returns whether we led.

        Called after the injector installed the delivery swallow and halted
        the program (no ticks, no pending activation).  Timers must be
        cancelled here -- a liveness timer firing
        on a crashed node would bump epochs from beyond the grave.
        """
        self.crashed = True
        self._cancel_heartbeat()
        self._cancel_liveness()
        was_leader = self.state is NodeState.LEADER
        if was_leader:
            self.status.live_leaders -= 1
            if self.status.leader_uid == self._require_node().uid:
                self.status.leader_uid = None
        return was_leader

    def on_recover(self) -> None:
        """Injector hook: re-enter the election as an idle non-leader.

        The node keeps its epoch (it may be stale; the first higher-epoch
        token it sees fixes that) but forgets ``d`` -- a pre-crash ``d``
        reflects a ring population that no longer exists.
        """
        self.crashed = False
        self.state = NodeState.IDLE
        self.d = 1
        self._probability = self.schedule.probability(1)
        self.trace("rejoin", state=str(self.state), epoch=self.epoch)
        self._begin_idle_spell()

    # ----------------------------------------------------------------- epochs

    def _adopt_epoch(self, epoch: int) -> None:
        """Catch up to a higher epoch observed on the wire."""
        self.epoch = epoch
        if epoch > self.status.epoch:
            self.status.epoch = epoch
        self.d = 1
        self._probability = self.schedule.probability(1)
        if self.state is NodeState.LEADER:
            self._step_down("stale-leader")
            return
        if self.state is not NodeState.IDLE:
            self.state = NodeState.IDLE
            self.trace("state", state=str(self.state), d=self.d, epoch=epoch)
        # A new spell also for a node that was idle: resetting d changed its
        # activation probability.
        self._begin_idle_spell()

    def _bump_epoch(self) -> None:
        """Open a fresh epoch after suspecting the leader (or a split brain)."""
        self.epoch += 1
        if self.epoch > self.status.epoch:
            self.status.epoch = self.epoch
        self.status.suspicions += 1
        self.d = 1
        self._probability = self.schedule.probability(1)
        if self.state is NodeState.LEADER:
            self._step_down("split-brain")
        else:
            self.state = NodeState.IDLE
            self.trace("suspect", state=str(self.state), epoch=self.epoch)
            self._begin_idle_spell()

    def _step_down(self, reason: str) -> None:
        """Leader -> idle: a higher epoch or a split brain deposed us."""
        self._cancel_heartbeat()
        self.state = NodeState.IDLE
        self.status.live_leaders -= 1
        node = self._require_node()
        if self.status.leader_uid == node.uid:
            self.status.leader_uid = None
        self.trace("depose", reason=reason, epoch=self.epoch)
        if self.monitor is not None:
            self.monitor.record_deposed(self.now, node.uid)
        self._begin_idle_spell()

    # ------------------------------------------------------------- heartbeats

    def _heartbeat_fire(self) -> None:
        self._heartbeat_timer = None
        if self.crashed or self.state is not NodeState.LEADER:
            return
        # n >= 2, so ttl = n - 1 >= 1 and the beacon always leaves the leader.
        self.send(RING_PORT, Heartbeat(epoch=self.epoch, ttl=(self.n or 2) - 1))
        self.status.heartbeats += 1
        self._heartbeat_timer = self.set_timer(
            self.heartbeat_interval, self._heartbeat_fire
        )

    def _cancel_heartbeat(self) -> None:
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    def _on_heartbeat(self, payload: Heartbeat) -> None:
        if payload.epoch < self.epoch:
            self.trace("purge-stale-heartbeat", epoch=payload.epoch)
            return
        if payload.epoch > self.epoch:
            self._adopt_epoch(payload.epoch)
        elif self.state is NodeState.LEADER:
            # Same epoch, and our own heartbeats never come back (ttl=n-1):
            # some other node is leader in our epoch.  Depose ourselves into a
            # fresh epoch; the surviving leader's next heartbeat (or the
            # election our epoch bump restarts) resolves the race.
            self._bump_epoch()
            return
        self._arm_liveness()
        if payload.ttl > 1:
            self.send(RING_PORT, Heartbeat(epoch=payload.epoch, ttl=payload.ttl - 1))

    # ---------------------------------------------------------------- liveness

    def _arm_liveness(self) -> None:
        self._cancel_liveness()
        self._liveness_timer = self.set_timer(
            self.leader_timeout, self._on_liveness_timeout
        )

    def _cancel_liveness(self) -> None:
        if self._liveness_timer is not None:
            self._liveness_timer.cancel()
            self._liveness_timer = None

    def _on_liveness_timeout(self) -> None:
        self._liveness_timer = None
        if self.crashed or self.state is NodeState.LEADER:
            return
        self.trace("leader-timeout", epoch=self.epoch)
        self._bump_epoch()

    # ------------------------------------------------------------ state machine

    def _activate(self) -> None:
        self.state = NodeState.ACTIVE
        self.times_activated += 1
        self.status.activations += 1
        self.trace("state", state=str(self.state), d=self.d, epoch=self.epoch)
        self.send(RING_PORT, EpochHopMessage(hop=1, epoch=self.epoch))
        # An active node has no activation armed, so if its token dies on the
        # wire (a crash swallow, a cut link, a stale-epoch purge at a node
        # that moved on) nothing would ever wake it again: every node active
        # with every token lost is a deadlock the static algorithm cannot
        # reach but churn can.  Arming the liveness timer on activation
        # closes it -- a stranded active node suspects, bumps its epoch and
        # starts a fresh idle spell.
        self._arm_liveness()

    def on_receive(self, payload, port: int) -> None:
        if self.crashed:
            # Defensive: the injector swallows deliveries to crashed nodes;
            # nothing should reach a crashed program.
            return
        if isinstance(payload, Heartbeat):
            self._on_heartbeat(payload)
            return
        if not isinstance(payload, EpochHopMessage):
            raise TypeError(
                "churn-aware election nodes only understand EpochHopMessage "
                f"and Heartbeat, got {payload!r}"
            )
        if payload.epoch < self.epoch:
            self.trace("purge-stale", hop=payload.hop, epoch=payload.epoch)
            return
        if payload.epoch > self.epoch:
            self._adopt_epoch(payload.epoch)
        super().on_receive(payload, port)

    def _receive_while_idle(self, payload: HopMessage) -> None:
        super()._receive_while_idle(payload)
        # Knocked out: someone is actively electing, so from this moment the
        # node expects a leader (and its heartbeats) to emerge.  Arming here
        # rather than on first heartbeat closes the all-passive deadlock where
        # the winner crashes before its first heartbeat circulates.
        self._arm_liveness()

    def _become_leader(self, payload: HopMessage) -> None:
        super()._become_leader(payload)
        self.status.live_leaders += 1
        self._cancel_liveness()
        if self.monitor is not None:
            self.monitor.record_crowned(self.now, self._require_node().uid, self.epoch)
        self._heartbeat_fire()


@dataclass
class ChurnElectionResult(ElectionResult):
    """An :class:`~repro.core.runner.ElectionResult` plus stabilization metrics.

    ``elected``/``leader_uid``/``election_time`` describe the *final* live
    leader (``election_time`` is the last crowning, not the first; the first
    is ``first_election_time``).  The stabilization block aggregates the
    :class:`~repro.network.churn.StabilizationMonitor` episodes.
    """

    crashes: int
    recoveries: int
    link_outages: int
    disruptions: int
    re_elections: int
    final_epoch: int
    first_election_time: Optional[float]
    leader_downtime: float
    time_to_restabilize: float
    max_time_to_restabilize: float
    messages_per_re_election: float
    heartbeats: int
    suspicions: int
    stabilized: bool


def build_churn_election_network(
    n: int,
    *,
    script: FaultScript,
    a0: Optional[float] = None,
    delay: Optional[DelayDistribution] = None,
    seed: int = 0,
    schedule: Optional[ActivationSchedule] = None,
    clock_bounds: tuple = (1.0, 1.0),
    clock_drift_factory: Optional[Callable[[int], ClockDriftModel]] = None,
    processing_delay: Optional[DelayDistribution] = None,
    fifo: bool = False,
    purge_at_active: bool = True,
    tick_period: float = 1.0,
    enable_trace: bool = False,
    validate_model: bool = True,
    expected_delay_bound: Optional[float] = None,
    heartbeat_interval: Optional[float] = None,
    leader_timeout: Optional[float] = None,
    faults: tuple = (),
) -> tuple:
    """Construct a churn-aware election run; returns
    ``(network, status, injector, monitor)``.

    Mirrors :func:`repro.core.runner.build_election_network` and accepts the
    same model knobs (``a0=None`` means ``recommended_a0(n)``).
    ``heartbeat_interval``/``leader_timeout`` resolve by precedence: explicit
    argument, then the script's attributes, then the ABE model's
    :meth:`~repro.models.abe.ABEModel.churn_timeouts` derived from the
    actual delay/processing/clock configuration.  ``faults`` takes
    additional *static* fault specifications (message loss); crash-stop
    faults belong in the script, where they pair with recoveries.
    """
    if n < 2:
        raise ValueError(f"the election algorithm needs a ring of size n >= 2, got {n}")
    delay_model = delay if delay is not None else ExponentialDelay(mean=1.0)
    if schedule is None:
        schedule = AdaptiveActivation(recommended_a0(n) if a0 is None else a0)
    status = ChurnElectionStatus()

    config = NetworkConfig(
        topology=unidirectional_ring(n),
        delay_model=delay_model,
        seed=seed,
        fifo=fifo,
        processing_delay=processing_delay,
        clock_bounds=clock_bounds,
        clock_drift_factory=clock_drift_factory,
        size_known=True,
        enable_trace=enable_trace,
    )

    # The model is constructed unconditionally: even when validation is off
    # its known bounds supply the default failure-detection timeouts.
    delta = expected_delay_bound
    if delta is None:
        mean = delay_model.mean()
        delta = mean if mean > 0 else 1.0
    gamma = processing_delay.mean() if processing_delay is not None else 0.0
    model = ABEModel(
        expected_delay_bound=delta,
        s_low=clock_bounds[0],
        s_high=clock_bounds[1],
        expected_processing_bound=gamma,
    )
    if validate_model:
        model.validate_config(config)

    default_interval, default_timeout = model.churn_timeouts(n)
    if heartbeat_interval is None:
        heartbeat_interval = (
            script.heartbeat_interval
            if script.heartbeat_interval is not None
            else default_interval
        )
    if leader_timeout is None:
        leader_timeout = (
            script.leader_timeout
            if script.leader_timeout is not None
            else default_timeout
        )

    monitor = StabilizationMonitor()

    def program_factory(uid: int) -> ChurnAwareElectionProgram:
        return ChurnAwareElectionProgram(
            status=status,
            heartbeat_interval=heartbeat_interval,
            leader_timeout=leader_timeout,
            monitor=monitor,
            schedule=schedule,
            tick_period=tick_period,
            purge_at_active=purge_at_active,
        )

    network = Network(config, program_factory)
    monitor.attach(network)

    injector = ScheduledFaultInjector(network, script, status=status, monitor=monitor)
    if faults:
        injector.apply(faults)
    injector.install()
    return network, status, injector, monitor


def run_churn_election(
    n: int,
    *,
    script: FaultScript,
    a0: Optional[float] = None,
    delay: Optional[DelayDistribution] = None,
    seed: int = 0,
    schedule: Optional[ActivationSchedule] = None,
    clock_bounds: tuple = (1.0, 1.0),
    clock_drift_factory: Optional[Callable[[int], ClockDriftModel]] = None,
    processing_delay: Optional[DelayDistribution] = None,
    fifo: bool = False,
    purge_at_active: bool = True,
    tick_period: float = 1.0,
    enable_trace: bool = False,
    validate_model: bool = True,
    expected_delay_bound: Optional[float] = None,
    heartbeat_interval: Optional[float] = None,
    leader_timeout: Optional[float] = None,
    faults: tuple = (),
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
    on_budget: str = "stop",
) -> ChurnElectionResult:
    """Run a churn-aware election under ``script`` and report stabilization.

    The run stops when the script is quiescent (every scheduled disruption
    and its reversal has fired) *and* exactly one live leader exists -- i.e.
    the ring has restabilized after the last disruption.  ``stabilized``
    records whether that predicate was reached within the budgets
    (``elected`` alone only says a final leader exists).

    ``on_budget="raise"`` arms the divergence watchdog exactly as in
    :func:`~repro.core.runner.run_election_on_network`; note that a
    non-quiescent script can legitimately exhaust the budget (a crash without
    recovery partitions the ring forever).
    """
    if on_budget not in ("stop", "raise"):
        raise ValueError(f"on_budget must be 'stop' or 'raise', got {on_budget!r}")
    if a0 is None:
        a0 = recommended_a0(n)
    network, status, injector, monitor = build_churn_election_network(
        n,
        script=script,
        a0=a0,
        delay=delay,
        seed=seed,
        schedule=schedule,
        clock_bounds=clock_bounds,
        clock_drift_factory=clock_drift_factory,
        processing_delay=processing_delay,
        fifo=fifo,
        purge_at_active=purge_at_active,
        tick_period=tick_period,
        enable_trace=enable_trace,
        validate_model=validate_model,
        expected_delay_bound=expected_delay_bound,
        heartbeat_interval=heartbeat_interval,
        leader_timeout=leader_timeout,
        faults=faults,
    )
    if max_events is None:
        # Churn runs re-elect and heartbeat; give them room beyond the static
        # default before the divergence machinery kicks in.
        max_events = _default_max_events(n) * 4

    def settled() -> bool:
        return injector.quiescent and status.live_leaders == 1

    network.stop_when(settled)
    # The stop predicate is checked before each event but the checked event
    # still fires, so the very event that triggers the stop can falsify the
    # predicate (e.g. a higher-epoch token deposing the last leader).  Resume
    # until the predicate holds *at* the stop, the budget is gone, or the run
    # makes no progress (queue exhausted / horizon reached).
    while True:
        remaining = max_events - network.simulator.events_processed
        if remaining <= 0:
            break
        before = network.simulator.events_processed
        network.run(
            until=max_time, max_events=remaining, raise_on_limit=(on_budget == "raise")
        )
        if settled() or network.simulator.events_processed == before:
            break
    summary = monitor.summary()
    stabilized = settled() and status.leader_uid is not None
    return ChurnElectionResult(
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
        seed=network.config.seed,
        a0=a0,
        leaders_elected=status.leaders_elected,
        crashes=int(summary["crashes"]),
        recoveries=int(summary["recoveries"]),
        link_outages=int(summary["link_outages"]),
        disruptions=int(summary["disruptions"]),
        re_elections=int(summary["re_elections"]),
        final_epoch=status.epoch,
        first_election_time=monitor.first_election_time,
        leader_downtime=summary["leader_downtime"],
        time_to_restabilize=summary["mean_time_to_restabilize"],
        max_time_to_restabilize=summary["max_time_to_restabilize"],
        messages_per_re_election=summary["mean_messages_per_re_election"],
        heartbeats=status.heartbeats,
        suspicions=status.suspicions,
        stabilized=stabilized,
    )
