"""Workload runners behind the ``algorithm`` key of a scenario spec.

Every entry of :data:`ALGORITHMS` compiles a
:class:`~repro.scenarios.spec.ScenarioSpec` into a *picklable* trial callable
``seed -> result``, so one compiled spec drives serial and pooled
:class:`~repro.experiments.parallel.SweepPool` execution bit-identically.
Compilation is where spec/algorithm compatibility is enforced: a ring
algorithm rejects a grid topology at compile time, with the reason, instead
of failing mid-simulation.

Registered workloads:

``abe-election``
    The paper's Section 3 election (:func:`repro.core.runner.run_election`),
    including the fault-injection path no experiment could previously reach
    from configuration.
``itai-rodeh`` / ``chang-roberts`` / ``dolev-klawe-rodeh`` / ``franklin``
    The classical ring baselines of experiment E6.
``echo-wave`` / ``flooding-wave``
    Wave algorithms for *arbitrary* bidirectional topologies (grid, tree,
    star, random graphs) -- the workloads that open the non-ring shapes in
    :mod:`repro.network.topology` to specs and the CLI.
``synchronizer-battery``
    One experiment-E5 battery (alpha/beta/ABD x ABE/ABD delays) per point.
``lossy-channel``
    The experiment-E4 retransmission measurement.

The last two are **one-shot** runners: each point is a single deterministic
evaluation of the spec's raw ``seed`` (no derived trial seeds), matching how
E4/E5 have always consumed their seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.analysis import recommended_a0
from repro.network.delays import ExponentialDelay
from repro.network.faults import CrashStopFault, FaultInjector, MessageLossFault
from repro.scenarios.registry import (
    Registry,
    DriftFactory,
    build_churn,
    build_delay,
    build_schedule,
    build_topology,
)
from repro.scenarios.spec import ScenarioSpec, SpecNode

__all__ = [
    "ALGORITHMS",
    "AlgorithmEntry",
    "WaveResult",
    "ElectionScenarioTrial",
    "BaselineScenarioTrial",
    "WaveScenarioTrial",
    "SynchronizerBatteryTrial",
    "LossyChannelMeasurement",
    "LossyChannelTrial",
    "measure_lossy_channel",
    "run_synchronizer_battery",
]


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered workload: a trial compiler plus execution metadata.

    ``metric`` is the result attribute an unpinned
    :class:`~repro.experiments.runner.AdaptiveStopping` rule targets.
    ``one_shot`` marks deterministic single-evaluation workloads that consume
    the spec's raw seed instead of derived trial seeds.
    """

    key: str
    build_trial: Callable[[ScenarioSpec], Callable[[int], Any]]
    metric: str = "messages_total"
    one_shot: bool = False
    description: str = ""


ALGORITHMS = Registry("algorithm")


def _register(entry: AlgorithmEntry) -> None:
    ALGORITHMS.register(entry.key, entry)


# ------------------------------------------------------------------- utilities


def _ring_size(spec: ScenarioSpec, *, kinds: Tuple[str, ...] = ("uniring",)) -> int:
    """The ring size of a ring-algorithm spec, validating the topology kind."""
    node = spec.topology
    if node.kind not in kinds:
        raise ValueError(
            f"algorithm {spec.algorithm!r} runs on ring topologies "
            f"({'/'.join(kinds)}); got topology kind {node.kind!r} -- use a wave "
            "or synchronizer workload for non-ring shapes"
        )
    n = node.params.get("n")
    if n is None:
        raise ValueError(f"ring topology {node.kind!r} needs an 'n' parameter")
    return int(n)


def _build_faults(nodes: Tuple[SpecNode, ...]) -> List[Any]:
    faults: List[Any] = []
    for node in nodes:
        if node.kind == "message-loss":
            faults.append(MessageLossFault(**node.params))
        elif node.kind == "crash":
            faults.append(CrashStopFault(**node.params))
        else:
            raise ValueError(
                f"unknown fault kind {node.kind!r}; known kinds: ['crash', 'message-loss']"
            )
    return faults


def _spec_delay(spec: ScenarioSpec) -> Optional[Any]:
    """The compiled delay model: explicit node, retransmission sugar, or None."""
    if spec.retransmission is not None:
        return build_delay(SpecNode("retransmission", dict(spec.retransmission)))
    return build_delay(spec.delay)


def _reject_unsupported(spec: ScenarioSpec, supported: Tuple[str, ...]) -> None:
    """Reject non-default spec fields the algorithm would silently ignore.

    A spec naming a knob its workload cannot honour must fail at compile
    time -- results from a quietly dropped delay model or time budget would
    claim a configuration that never ran.
    """
    defaults = ScenarioSpec()
    always = ("algorithm", "topology", "seed", "trials", "label", "stopping", "workers", "params")
    for name in (field.name for field in dataclasses.fields(ScenarioSpec)):
        if name in always or name in supported:
            continue
        if getattr(spec, name) != getattr(defaults, name):
            raise ValueError(
                f"algorithm {spec.algorithm!r} does not support the {name!r} knob"
            )


# ---------------------------------------------------------------- ABE election


class ElectionScenarioTrial:
    """Picklable ``seed -> ElectionResult`` compiled from one spec.

    The no-fault path is *exactly* ``run_election(n, a0=..., delay=...,
    seed=seed, ...)``, which is what keeps the pre-refactor goldens
    byte-identical.  Faulted specs take the build-inject-run path instead
    (:func:`~repro.core.runner.build_election_network` +
    :class:`~repro.network.faults.FaultInjector`).

    A spec with a ``churn`` node compiles onto the churn-aware election
    (:func:`~repro.core.churn_election.run_churn_election`): the scripted
    injector drives crash/recover and link churn, and the result carries the
    stabilization metrics.  Churn is object-core only, and static ``crash``
    fault nodes are rejected in its presence (express them as churn events so
    the monitor sees them).

    ``core="vector"`` specs compile onto the columnar engine instead:
    the no-fault path is ``run_election(..., core="vector")`` and faults
    translate to the engine's first-class knobs (``message-loss`` nodes
    combine into one per-delivery drop probability ``1 - prod(1 - p_i)``,
    ``crash`` nodes become ``(node_uid, crash_time)`` pairs).  A loss fault
    with a ``channel_predicate`` is rejected at compile time -- the vector
    core has no channel objects to filter.
    """

    __slots__ = (
        "n",
        "a0",
        "delay",
        "faults",
        "churn",
        "max_events",
        "max_time",
        "on_budget",
        "core",
        "vector_kwargs",
        "kwargs",
    )

    def __init__(self, spec: ScenarioSpec) -> None:
        self.n = _ring_size(spec)
        self.a0 = spec.a0 if spec.a0 is not None else recommended_a0(self.n)
        delay = _spec_delay(spec)
        self.delay = delay if delay is not None else ExponentialDelay(mean=1.0)
        self.faults = _build_faults(spec.faults)
        self.churn = build_churn(spec.churn)
        if self.churn is not None:
            if spec.core == "vector":
                raise ValueError(
                    "the 'churn' knob needs the per-node object core "
                    "(crash/recover mutates individual nodes); use core='object'"
                )
            if any(isinstance(fault, CrashStopFault) for fault in self.faults):
                raise ValueError(
                    "churn specs express crashes as churn events (kind 'crash', "
                    "optionally with a downtime); a static crash fault would "
                    "bypass the stabilization bookkeeping"
                )
        self.max_events = spec.max_events
        self.max_time = spec.max_time
        self.on_budget = spec.on_budget
        self.core = spec.core
        kwargs: Dict[str, Any] = dict(
            schedule=build_schedule(spec.schedule),
            clock_bounds=spec.clock_bounds,
            clock_drift_factory=DriftFactory(spec.drift) if spec.drift is not None else None,
            processing_delay=build_delay(spec.processing_delay),
            fifo=spec.fifo,
            purge_at_active=spec.purge_at_active,
            tick_period=spec.tick_period,
            validate_model=spec.validate_model,
            expected_delay_bound=spec.expected_delay_bound,
        )
        kwargs.update(spec.params)
        # A runtime delay object may ride the params pass-through (the
        # historical ``election_overrides={'delay': ...}`` contract); it
        # takes the dedicated slot rather than clashing with the explicit
        # ``delay=`` keyword below.
        self.delay = kwargs.pop("delay", self.delay)
        self.kwargs = kwargs
        self.vector_kwargs = (
            self._compile_vector(spec) if spec.core == "vector" else None
        )

    def _compile_vector(self, spec: ScenarioSpec) -> Dict[str, Any]:
        """Vector-engine kwargs, with the unsupported knobs rejected by name."""
        if tuple(spec.clock_bounds) != (1.0, 1.0):
            raise ValueError(
                "core='vector' does not support clock_bounds != (1, 1); "
                "use core='object'"
            )
        if spec.drift is not None:
            raise ValueError(
                "core='vector' does not support the 'drift' knob; "
                "use core='object'"
            )
        message_loss = 0.0
        crashes: List[Tuple[int, float]] = []
        for fault in self.faults:
            if isinstance(fault, MessageLossFault):
                if fault.channel_predicate is not None:
                    raise ValueError(
                        "core='vector' supports ring-wide message loss only; "
                        "a channel_predicate needs the object core"
                    )
                # Independent per-delivery coins compose multiplicatively.
                message_loss = 1.0 - (1.0 - message_loss) * (
                    1.0 - fault.loss_probability
                )
            else:
                crashes.append((fault.node_uid, fault.crash_time))
        kwargs = dict(self.kwargs)
        for object_only in ("clock_bounds", "clock_drift_factory"):
            kwargs.pop(object_only, None)
        kwargs["message_loss"] = message_loss
        kwargs["crashes"] = tuple(crashes)
        return kwargs

    def __call__(self, seed: int) -> Any:
        if self.churn is not None:
            from repro.core.churn_election import run_churn_election

            return run_churn_election(
                self.n,
                script=self.churn,
                a0=self.a0,
                delay=self.delay,
                seed=seed,
                faults=tuple(self.faults),
                max_events=self.max_events,
                max_time=self.max_time,
                on_budget=self.on_budget,
                **self.kwargs,
            )
        if self.vector_kwargs is not None:
            from repro.core.vector_core import run_vector_election

            return run_vector_election(
                self.n,
                a0=self.a0,
                delay=self.delay,
                seed=seed,
                max_events=self.max_events,
                max_time=self.max_time,
                on_budget=self.on_budget,
                **self.vector_kwargs,
            )
        from repro.core.runner import (
            build_election_network,
            run_election,
            run_election_on_network,
        )

        if not self.faults:
            return run_election(
                self.n,
                a0=self.a0,
                delay=self.delay,
                seed=seed,
                max_events=self.max_events,
                max_time=self.max_time,
                on_budget=self.on_budget,
                **self.kwargs,
            )
        network, status = build_election_network(
            self.n, a0=self.a0, delay=self.delay, seed=seed, **self.kwargs
        )
        injector = FaultInjector(network)
        injector.apply(self.faults)
        return run_election_on_network(
            network,
            status,
            max_events=self.max_events,
            max_time=self.max_time,
            a0=self.a0,
            on_budget=self.on_budget,
        )


_register(
    AlgorithmEntry(
        key="abe-election",
        build_trial=ElectionScenarioTrial,
        metric="messages_total",
        description="Section 3 election on an anonymous unidirectional ABE ring",
    )
)


# ------------------------------------------------------------------- baselines


def _baseline_runners() -> Dict[str, Callable[..., Any]]:
    from repro.algorithms.leader_election import (
        run_chang_roberts,
        run_dolev_klawe_rodeh,
        run_franklin,
        run_itai_rodeh,
    )

    return {
        "itai-rodeh": run_itai_rodeh,
        "chang-roberts": run_chang_roberts,
        "dolev-klawe-rodeh": run_dolev_klawe_rodeh,
        "franklin": run_franklin,
    }


class BaselineScenarioTrial:
    """Picklable ``seed -> RingElectionResult`` for the classical baselines."""

    __slots__ = ("key", "n", "delay", "kwargs")

    def __init__(self, spec: ScenarioSpec) -> None:
        self.key = spec.algorithm
        # Franklin runs on a bidirectional ring it builds itself; accept both
        # ring kinds and let the runner pick its direction.
        self.n = _ring_size(spec, kinds=("uniring", "biring"))
        _reject_unsupported(
            spec,
            supported=(
                "delay",
                "retransmission",
                "max_events",
                "on_budget",
            ),
        )
        self.delay = _spec_delay(spec)
        kwargs: Dict[str, Any] = {}
        if spec.max_events is not None:
            kwargs["max_events"] = spec.max_events
        if spec.on_budget != "stop":
            kwargs["on_budget"] = spec.on_budget
        kwargs.update(spec.params)
        self.kwargs = kwargs

    def __call__(self, seed: int) -> Any:
        runner = _baseline_runners()[self.key]
        return runner(self.n, delay=self.delay, seed=seed, **self.kwargs)


for _key in ("itai-rodeh", "chang-roberts", "dolev-klawe-rodeh", "franklin"):
    _register(
        AlgorithmEntry(
            key=_key,
            build_trial=BaselineScenarioTrial,
            metric="messages_total",
            description=f"classical {_key} ring election baseline",
        )
    )


# ----------------------------------------------------------------------- waves


@dataclass
class WaveResult:
    """Outcome of one wave (echo / flooding) run on an arbitrary topology."""

    algorithm: str
    topology: str
    n: int
    seed: int
    completed: bool
    completion_time: Optional[float]
    messages_total: int
    nodes_reached: int
    events_processed: int


class WaveScenarioTrial:
    """Picklable ``seed -> WaveResult`` for echo/flooding on any topology."""

    __slots__ = (
        "algorithm",
        "topology_node",
        "delay",
        "faults",
        "spec_fields",
        "initiator",
        "max_events",
    )

    def __init__(self, spec: ScenarioSpec) -> None:
        from repro.scenarios.registry import TOPOLOGIES

        self.algorithm = spec.algorithm
        TOPOLOGIES.get(spec.topology.kind)  # fail fast on unknown kinds
        self.topology_node = spec.topology
        _reject_unsupported(
            spec,
            supported=(
                "delay",
                "retransmission",
                "fifo",
                "processing_delay",
                "clock_bounds",
                "drift",
                "faults",
                "max_events",
                "max_time",
                "on_budget",
            ),
        )
        self.delay = _spec_delay(spec)
        self.faults = _build_faults(spec.faults)
        params = dict(spec.params)
        self.initiator = int(params.pop("initiator", 0))
        if params:
            raise ValueError(
                f"unknown params for {spec.algorithm!r}: {sorted(params)}; "
                "known params: ['initiator']"
            )
        self.max_events = spec.max_events
        self.spec_fields = dict(
            fifo=spec.fifo,
            processing_delay=build_delay(spec.processing_delay),
            clock_bounds=spec.clock_bounds,
            clock_drift_factory=DriftFactory(spec.drift) if spec.drift is not None else None,
            max_time=spec.max_time,
            on_budget=spec.on_budget,
        )

    def __call__(self, seed: int) -> WaveResult:
        from repro.algorithms.echo import EchoProgram
        from repro.algorithms.flooding import FloodingProgram
        from repro.network.network import Network, NetworkConfig

        topology = build_topology(self.topology_node)
        if not (0 <= self.initiator < topology.n):
            raise ValueError(
                f"initiator {self.initiator} outside 0..{topology.n - 1}"
            )
        fields = self.spec_fields
        config = NetworkConfig(
            topology=topology,
            delay_model=self.delay if self.delay is not None else ExponentialDelay(mean=1.0),
            seed=seed,
            fifo=fields["fifo"],
            processing_delay=fields["processing_delay"],
            clock_bounds=fields["clock_bounds"],
            clock_drift_factory=fields["clock_drift_factory"],
            enable_trace=False,
        )
        if self.algorithm == "echo-wave":
            factory = lambda uid: EchoProgram(is_initiator=(uid == self.initiator))  # noqa: E731
        else:
            factory = lambda uid: FloodingProgram(  # noqa: E731
                is_initiator=(uid == self.initiator), value="wave-payload"
            )
        network = Network(config, factory)
        if self.faults:
            injector = FaultInjector(network)
            injector.apply(self.faults)
        programs = network.programs()
        if self.algorithm == "echo-wave":
            done = lambda: programs[self.initiator].decided  # noqa: E731
        else:
            done = lambda: all(program.informed for program in programs)  # noqa: E731
        network.stop_when(done)
        max_events = self.max_events
        if max_events is None:
            max_events = 200_000 + 20_000 * topology.n
        network.run(
            until=fields["max_time"],
            max_events=max_events,
            raise_on_limit=(fields["on_budget"] == "raise"),
        )
        if self.algorithm == "echo-wave":
            reached = sum(
                1
                for program in programs
                if program.parent_uid is not None or program.is_initiator
            )
        else:
            reached = sum(1 for program in programs if program.informed)
        return WaveResult(
            algorithm=self.algorithm,
            topology=topology.name,
            n=topology.n,
            seed=seed,
            completed=done(),
            completion_time=network.now if done() else None,
            messages_total=network.messages_sent(),
            nodes_reached=reached,
            events_processed=network.simulator.events_processed,
        )


for _key, _description in (
    ("echo-wave", "termination-detecting echo wave on any bidirectional topology"),
    ("flooding-wave", "asynchronous flooding broadcast on any topology"),
):
    _register(
        AlgorithmEntry(
            key=_key,
            build_trial=WaveScenarioTrial,
            metric="messages_total",
            description=_description,
        )
    )


# ------------------------------------------------------- synchronizer battery


def _flooding_factory(initiator: int, rounds: int):
    from repro.algorithms.synchronous import FloodingSync

    def factory(uid: int) -> Any:
        return FloodingSync(
            is_initiator=(uid == initiator), value="flood-payload", max_rounds=rounds
        )

    return factory


def _ground_truth(topology: Any, rounds: int) -> List[Any]:
    from repro.algorithms.synchronous import SynchronousExecutor

    executor = SynchronousExecutor(topology, _flooding_factory(0, rounds))
    return executor.run(max_rounds=rounds + 1).results


#: The hard bound the ABD synchronizer believes in, and the bounded delay
#: distribution used for the "genuine ABD network" runs (experiment E5).
ABD_DELAY_BOUND = 2.0


def _run_sync_case(
    topology: Any,
    synchronizer: str,
    rounds: int,
    seed: int,
    abe_delays: bool,
) -> Any:
    from repro.network.delays import UniformDelay
    from repro.synchronizers.abd import AbdSynchronizerProgram
    from repro.synchronizers.alpha import AlphaSynchronizerProgram
    from repro.synchronizers.base import run_synchronized
    from repro.synchronizers.beta import BetaSynchronizerProgram, build_bfs_tree

    delay = (
        ExponentialDelay(mean=1.0)
        if abe_delays
        else UniformDelay(0.25, ABD_DELAY_BOUND)
    )
    process_factory = _flooding_factory(0, rounds)
    if synchronizer == "alpha":
        return run_synchronized(
            topology,
            process_factory,
            lambda uid, p, tr, st: AlphaSynchronizerProgram(p, tr, st),
            total_rounds=rounds,
            synchronizer_name="alpha",
            delay=delay,
            seed=seed,
        )
    if synchronizer == "beta":
        tree = build_bfs_tree(topology)
        return run_synchronized(
            topology,
            process_factory,
            lambda uid, p, tr, st: BetaSynchronizerProgram(p, tr, st),
            total_rounds=rounds,
            synchronizer_name="beta",
            delay=delay,
            seed=seed,
            knowledge_factory=lambda uid: tree[uid],
        )
    if synchronizer == "abd":
        return run_synchronized(
            topology,
            process_factory,
            lambda uid, p, tr, st: AbdSynchronizerProgram(
                p, tr, st, delay_bound=ABD_DELAY_BOUND
            ),
            total_rounds=rounds,
            synchronizer_name="abd",
            delay=delay,
            seed=seed,
        )
    raise ValueError(f"unknown synchronizer {synchronizer!r}")


def run_synchronizer_battery(
    n: int,
    base_seed: int,
    rounds: Optional[int] = None,
    include_random_graph: bool = True,
) -> List[dict]:
    """All E5 cases for one size; rows carry only primitives so batteries can
    run in (long-lived) worker processes.  Module-level, so it pickles into a
    shared :class:`~repro.experiments.parallel.SweepPool`."""
    from repro.network.topology import bidirectional_ring, random_connected
    from repro.synchronizers.lower_bound import theorem1_lower_bound, theorem1_satisfied

    rows: List[dict] = []
    topologies = [bidirectional_ring(n)]
    if include_random_graph:
        topologies.append(random_connected(n, edge_probability=0.3, seed=base_seed + n))
    for topology in topologies:
        round_count = rounds if rounds is not None else max(4, n // 2)
        truth = _ground_truth(topology, round_count)
        cases = [
            ("alpha", True),
            ("beta", True),
            ("abd", False),
            ("abd", True),
        ]
        for synchronizer, abe_delays in cases:
            result = _run_sync_case(
                topology, synchronizer, round_count, base_seed + n, abe_delays
            )
            matches = result.results == truth and result.completed
            rows.append(
                dict(
                    topology=topology.name,
                    n=n,
                    synchronizer=synchronizer,
                    delay_model="ABE (exponential)" if abe_delays else "ABD (bounded)",
                    messages_per_round=result.messages_per_round,
                    theorem1_bound=theorem1_lower_bound(n),
                    meets_theorem1=theorem1_satisfied(result),
                    late_messages=result.late_messages,
                    matches_ground_truth=matches,
                )
            )
    return rows


class SynchronizerBatteryTrial:
    """Picklable one-shot ``seed -> battery rows`` (experiment E5's unit)."""

    __slots__ = ("n", "rounds", "include_random_graph")

    def __init__(self, spec: ScenarioSpec) -> None:
        self.n = _ring_size(spec, kinds=("biring", "uniring"))
        # The battery hard-codes its delay models and knobs (ABE vs ABD is
        # the experiment); a spec naming any must fail, not be ignored.
        _reject_unsupported(spec, supported=())
        params = dict(spec.params)
        self.rounds = params.pop("rounds", None)
        self.include_random_graph = bool(params.pop("include_random_graph", True))
        if params:
            raise ValueError(
                f"unknown params for 'synchronizer-battery': {sorted(params)}; "
                "known params: ['rounds', 'include_random_graph']"
            )

    def __call__(self, seed: int) -> List[dict]:
        return run_synchronizer_battery(
            self.n,
            base_seed=seed,
            rounds=self.rounds,
            include_random_graph=self.include_random_graph,
        )


_register(
    AlgorithmEntry(
        key="synchronizer-battery",
        build_trial=SynchronizerBatteryTrial,
        metric="messages_per_round",
        one_shot=True,
        description="alpha/beta/ABD synchronizers vs Theorem 1, one battery per size",
    )
)


# ----------------------------------------------------------------- lossy channel


@dataclass(frozen=True)
class LossyChannelMeasurement:
    """One experiment-E4 measurement of a lossy channel at one ``p``.

    ``mechanistic_mean_attempts`` is the mean transmissions per message of
    the attempt-by-attempt channel, ``closed_form_mean_delay`` the mean of
    the geometric delay distribution (unit transmission time), and
    ``tail_measured`` that sample's share above ``tail_k`` attempts.
    """

    mechanistic_mean_attempts: float
    closed_form_mean_delay: float
    tail_measured: float


def measure_lossy_channel(
    p: float, messages: int, tail_k: int, base_seed: int
) -> LossyChannelMeasurement:
    """One experiment-E4 measurement: mechanistic vs closed-form channel.

    Streams are named per probability, so a fresh
    :class:`~repro.sim.rng.RandomSource` per measurement draws the exact same
    streams a shared one would -- which is what makes the fan-out
    bit-identical to a serial loop.
    """
    from repro.network.retransmission import GeometricRetransmissionDelay, LossyChannelModel
    from repro.sim.rng import RandomSource
    from repro.stats.distributions import tail_mass

    source = RandomSource(base_seed)
    channel = LossyChannelModel(success_probability=p, transmission_time=1.0)
    channel_rng = source.stream(f"channel/p{p}")
    for _ in range(messages):
        channel.transmit(channel_rng)
    mechanistic = channel.observed_mean_attempts()

    distribution = GeometricRetransmissionDelay(p, transmission_time=1.0)
    dist_rng = source.stream(f"distribution/p{p}")
    samples = distribution.sample_many(dist_rng, messages)
    return LossyChannelMeasurement(
        mechanistic_mean_attempts=mechanistic,
        closed_form_mean_delay=sum(samples) / len(samples),
        tail_measured=tail_mass(samples, float(tail_k)),
    )


class LossyChannelTrial:
    """Picklable one-shot ``seed -> LossyChannelMeasurement``."""

    __slots__ = ("p", "messages", "tail_k")

    def __init__(self, spec: ScenarioSpec) -> None:
        # A pure channel measurement: no network is built, so every network
        # knob (delay, topology shape aside, faults, ...) must be rejected.
        _reject_unsupported(spec, supported=())
        params = dict(spec.params)
        try:
            self.p = float(params.pop("p"))
        except KeyError:
            raise ValueError(
                "'lossy-channel' needs a success probability: params={'p': ...}"
            ) from None
        self.messages = int(params.pop("messages", 20_000))
        self.tail_k = int(params.pop("tail_k", 5))
        if params:
            raise ValueError(
                f"unknown params for 'lossy-channel': {sorted(params)}; "
                "known params: ['p', 'messages', 'tail_k']"
            )

    def __call__(self, seed: int) -> LossyChannelMeasurement:
        return measure_lossy_channel(self.p, self.messages, self.tail_k, seed)


_register(
    AlgorithmEntry(
        key="lossy-channel",
        build_trial=LossyChannelTrial,
        metric="closed_form_mean_delay",
        one_shot=True,
        description="retransmission over a lossy channel: k_avg = 1/p (experiment E4)",
    )
)
