"""High-level API for running ABE ring elections.

:func:`run_election` is the main entry point of the library: it builds an
anonymous unidirectional ABE ring of size ``n``, validates the configuration
against the :class:`~repro.models.abe.ABEModel`, runs the Section 3 election
algorithm and returns an :class:`ElectionResult` with everything the
experiments need (leader, message counts, elapsed time, activations,
knockouts, termination flag).

For finer control -- custom topologies, pre-built networks, ablation switches
-- use :func:`run_election_on_network` or assemble the pieces from
:mod:`repro.core.election` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.activation import ActivationSchedule, AdaptiveActivation
from repro.core.analysis import recommended_a0
from repro.core.election import AbeElectionProgram, ElectionStatus, NodeState
from repro.models.abe import ABEModel
from repro.network.adversary import AdversarialDelay
from repro.network.delays import DelayDistribution, ExponentialDelay
from repro.network.network import Network, NetworkConfig
from repro.network.topology import unidirectional_ring
from repro.sim.clock import ClockDriftModel
from repro.sim.engine import SimulationDiverged

__all__ = ["ElectionResult", "run_election", "run_election_on_network"]

#: Election engine implementations selectable via ``run_election(core=...)``.
ELECTION_CORES = ("object", "vector")

DelayModel = Union[DelayDistribution, AdversarialDelay]


@dataclass
class ElectionResult:
    """Outcome and cost metrics of one election run.

    Attributes
    ----------
    n:
        Ring size.
    elected:
        Whether a leader was elected before the run hit its safety limits.
    leader_uid:
        Simulation uid of the elected node (``None`` if not elected).  The uid
        is bookkeeping only -- the algorithm itself is anonymous.
    election_time:
        Simulated real time at which the leader decided (``None`` if not
        elected).
    messages_total:
        Messages sent up to the moment the run stopped.
    knockout_messages:
        Number of idle-node knock-outs (each forwarded knockout message is
        counted once per knocked-out node, following the paper's notion).
    activations:
        Number of idle -> active transitions across all nodes.
    ticks:
        Total local clock ticks consumed.
    hop_overflows:
        Occurrences of a forwarded hop counter exceeding ``n`` (expected 0;
        non-zero values indicate a violated invariant and are surfaced by the
        verification layer).
    events_processed:
        Discrete events executed by the engine.  The object core counts one
        start-up per node, one timer per activation (plus wake-ups that
        re-aim it on a drifting clock), one event per delivery and any
        fault events; the vector core counts activations plus deliveries.
        Compare the figure within one core.
    seed:
        Master seed of the run.
    a0:
        Base activation parameter used.
    leaders_elected:
        How many nodes declared themselves leader (must be 1 for a safe run
        with the paper's purging rule).
    """

    n: int
    elected: bool
    leader_uid: Optional[int]
    election_time: Optional[float]
    messages_total: int
    knockout_messages: int
    activations: int
    ticks: int
    hop_overflows: int
    events_processed: int
    seed: int
    a0: float
    leaders_elected: int

    @property
    def messages_per_node(self) -> float:
        """Messages divided by ring size -- the per-node message cost."""
        return self.messages_total / self.n if self.n else 0.0

    @property
    def time_per_node(self) -> Optional[float]:
        """Election time divided by ring size (``None`` if not elected)."""
        if self.election_time is None or self.n == 0:
            return None
        return self.election_time / self.n


def _default_max_events(n: int) -> int:
    # Generous: linear expected cost, so this cap is orders of magnitude above
    # the typical event count and only guards against pathological seeds.
    return 500_000 + 50_000 * n


def build_election_network(
    n: int,
    *,
    a0: Optional[float] = None,
    delay: Optional[DelayModel] = None,
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
) -> tuple:
    """Construct the ring network and shared status for one election run.

    Returns ``(network, status)``.  Exposed separately from
    :func:`run_election` so tests and examples can inspect or instrument the
    network before running it.  ``a0=None`` means ``recommended_a0(n)``.
    """
    if n < 2:
        raise ValueError(f"the election algorithm needs a ring of size n >= 2, got {n}")
    delay_model: DelayModel = delay if delay is not None else ExponentialDelay(mean=1.0)
    if schedule is None:
        schedule = AdaptiveActivation(recommended_a0(n) if a0 is None else a0)
    status = ElectionStatus()

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

    if validate_model:
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
        model.validate_config(config)

    def program_factory(uid: int) -> AbeElectionProgram:
        return AbeElectionProgram(
            status=status,
            schedule=schedule,
            tick_period=tick_period,
            purge_at_active=purge_at_active,
        )

    network = Network(config, program_factory)
    return network, status


def run_election_on_network(
    network: Network,
    status: ElectionStatus,
    *,
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
    a0: Optional[float] = None,
    on_budget: str = "stop",
) -> ElectionResult:
    """Run an already-built election network to completion (or to its limits).

    ``on_budget`` chooses what budget exhaustion means: ``"stop"`` (default)
    truncates and returns a result with ``elected=False``, preserving the
    historical semantics; ``"raise"`` arms the divergence watchdog so a run
    that exhausts ``max_events``/``max_time`` without deciding raises
    :class:`~repro.sim.engine.SimulationDiverged` -- a decided election never
    raises, whatever the budgets.  A run whose queue drains undecided while
    some node still ticks (a lone active node whose crowning token was lost)
    is stuck for good: it returns ``elected=False``, or raises under
    ``"raise"``, like the vector core.  ``a0`` is only reported in the
    result; ``None`` reports the programs' schedule's ``a0`` (or
    ``recommended_a0(n)`` for a schedule without one).
    """
    if on_budget not in ("stop", "raise"):
        raise ValueError(f"on_budget must be 'stop' or 'raise', got {on_budget!r}")
    if max_events is None:
        max_events = _default_max_events(network.n)
    network.stop_when(lambda: status.decided)
    network.run(
        until=max_time, max_events=max_events, raise_on_limit=(on_budget == "raise")
    )
    simulator = network.simulator
    if a0 is None:
        # Report the base parameter the programs actually run with.
        a0 = getattr(status.programs[0].schedule, "a0", recommended_a0(network.n))
    if (
        on_budget == "raise"
        and not status.decided
        and simulator.pending == 0
        and status.ticking
    ):
        raise SimulationDiverged(
            f"election on n={network.n} is stuck undecided: no pending event "
            f"can wake a ticking node (now={simulator.now})",
            simulator.events_processed,
            simulator.now,
            max_events,
            max_time,
        )
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
        seed=network.config.seed,
        a0=a0,
        leaders_elected=status.leaders_elected,
    )


def run_election(
    n: int,
    *,
    a0: Optional[float] = None,
    delay: Optional[DelayModel] = None,
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
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
    on_budget: str = "stop",
    core: str = "object",
) -> ElectionResult:
    """Elect a leader on an anonymous unidirectional ABE ring of size ``n``.

    Parameters mirror the paper's knobs: the base activation parameter ``a0``
    (default ``recommended_a0(n)``), the per-channel delay model (default:
    exponential with mean 1, the canonical ABE channel), the clock-rate
    bounds, and the expected local processing delay.  See
    :class:`ElectionResult` for what is measured.

    ``core`` selects the engine: ``"object"`` is the per-node implementation
    (one activation timer per idle spell, see :mod:`repro.core.election`);
    ``"vector"`` runs the same state machine and activation rule on the
    columnar :class:`~repro.core.vector_core.VectorRingElection` engine (own
    seed-deterministic numpy streams, so a *different sample path* per seed
    -- see the stream-migration note in :mod:`repro.core.vector_core`).
    The vector core rejects per-node clock knobs (``clock_bounds`` other
    than ``(1, 1)``, ``clock_drift_factory``) and ``enable_trace``.

    Examples
    --------
    >>> result = run_election(8, a0=0.3, seed=1)
    >>> result.elected
    True
    >>> 0 <= result.leader_uid < 8
    True
    """
    if core not in ELECTION_CORES:
        raise ValueError(f"core must be one of {ELECTION_CORES}, got {core!r}")
    if core == "vector":
        if tuple(clock_bounds) != (1.0, 1.0):
            raise ValueError(
                "core='vector' shares one tick grid across the ring and "
                "does not support clock_bounds != (1, 1); use core='object'"
            )
        if clock_drift_factory is not None:
            raise ValueError(
                "core='vector' does not support clock_drift_factory; "
                "use core='object'"
            )
        if enable_trace:
            raise ValueError(
                "core='vector' has no per-event trace stream; use core='object'"
            )
        # Imported lazily: vector_core imports ElectionResult from this module.
        from repro.core.vector_core import run_vector_election

        return run_vector_election(
            n,
            a0=a0,
            delay=delay,
            seed=seed,
            schedule=schedule,
            fifo=fifo,
            purge_at_active=purge_at_active,
            tick_period=tick_period,
            processing_delay=processing_delay,
            validate_model=validate_model,
            expected_delay_bound=expected_delay_bound,
            max_events=max_events,
            max_time=max_time,
            on_budget=on_budget,
        )
    network, status = build_election_network(
        n,
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
    )
    return run_election_on_network(
        network,
        status,
        max_events=max_events,
        max_time=max_time,
        a0=a0,
        on_budget=on_budget,
    )
