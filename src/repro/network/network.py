"""The executable network: nodes + channels + programs on one simulator.

:class:`Network` assembles a :class:`~repro.network.topology.Topology`, a
delay model, a clock model and a program factory into a runnable simulation.
It is the main entry point used by the election runner, the synchronizers and
the experiment harness.

Typical usage::

    from repro.network import Network, NetworkConfig, unidirectional_ring
    from repro.network.delays import ExponentialDelay

    config = NetworkConfig(
        topology=unidirectional_ring(8),
        delay_model=ExponentialDelay(mean=1.0),
        seed=42,
    )
    network = Network(config, program_factory=lambda uid: MyProgram())
    network.start()
    network.run(max_events=100_000)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.network.adversary import AdversarialDelay
from repro.network.channel import Channel, FifoChannel
from repro.network.delays import ConstantDelay, DelayDistribution
from repro.network.node import Node, NodeProgram
from repro.network.topology import Topology
from repro.sim.clock import ClockDriftModel, LocalClock
from repro.sim.engine import Simulator
from repro.sim.monitor import MetricsCollector
from repro.sim.rng import RandomSource
from repro.sim.trace import NULL_TRACER, Tracer

__all__ = ["NetworkConfig", "Network"]

DelayModel = Union[DelayDistribution, AdversarialDelay]
DelayFactory = Callable[[int, int, int], DelayModel]


@dataclass
class NetworkConfig:
    """Configuration of a simulated network.

    Attributes
    ----------
    topology:
        The communication topology.
    delay_model:
        Either a single delay model shared by all channels, or a factory
        ``(channel_id, source_uid, destination_uid) -> delay model`` for
        heterogeneous links.
    seed:
        Master seed; all randomness (delays, node coins, clock drift) derives
        from it through named streams.
    fifo:
        Whether channels preserve per-link message order.  The ABE election
        algorithm does not need FIFO ("the order of messages is arbitrary"),
        so the default is ``False``.
    processing_delay:
        Optional distribution of local processing time added before each
        delivery handler runs (the paper's ``gamma`` bound); ``None`` means
        instantaneous processing.
    clock_bounds:
        ``(s_low, s_high)`` bounds on local clock rates (Definition 1(2)).
    clock_drift_factory:
        Optional factory ``uid -> ClockDriftModel``; defaults to perfect
        clocks at rate 1 clamped into the bounds.
    size_known:
        Whether nodes know the network size ``n`` (required by the election
        algorithm of Section 3).
    knowledge_factory:
        Optional factory ``uid -> dict`` of additional a-priori knowledge for
        each node (e.g. unique identifiers for the non-anonymous baselines).
    enable_trace:
        Whether to record a structured trace (disable for large sweeps).
    trace_limit:
        Maximum number of trace events retained.
    """

    topology: Topology
    delay_model: Union[DelayModel, DelayFactory] = field(
        default_factory=lambda: ConstantDelay(1.0)
    )
    seed: int = 0
    fifo: bool = False
    processing_delay: Optional[DelayDistribution] = None
    clock_bounds: tuple = (1.0, 1.0)
    clock_drift_factory: Optional[Callable[[int], ClockDriftModel]] = None
    size_known: bool = True
    knowledge_factory: Optional[Callable[[int], Dict[str, Any]]] = None
    enable_trace: bool = True
    trace_limit: Optional[int] = 100_000


class Network:
    """A runnable simulated network.

    Parameters
    ----------
    config:
        The :class:`NetworkConfig`.
    program_factory:
        Callable ``uid -> NodeProgram`` creating the per-node algorithm
        instance.  The factory receives the uid purely so heterogeneous
        deployments are possible; anonymous algorithms must ignore it.
    """

    def __init__(
        self, config: NetworkConfig, program_factory: Callable[[int], NodeProgram]
    ) -> None:
        self.config = config
        self.topology = config.topology
        self.simulator = Simulator()
        self.metrics = MetricsCollector()
        # A disabled tracer is the shared NULL_TRACER: channels detect it and
        # skip their record calls (and the kwargs dicts) entirely.
        if config.enable_trace:
            self.tracer = Tracer(enabled=True, max_events=config.trace_limit)
        else:
            self.tracer = NULL_TRACER
        self.random_source = RandomSource(config.seed)
        self.processing_delay = config.processing_delay
        self.nodes: List[Node] = []
        self.channels: List[Channel] = []
        self._stop_predicates: List[Callable[[], bool]] = []
        self._started = False
        # Message counts live as plain integers (single `+= 1` on the per
        # message path); the metrics collector reads them back so existing
        # consumers of count()/counters()/summary() see them unchanged.
        self._messages_sent = 0
        self._messages_delivered = 0
        self._deliveries = 0
        self.metrics.bind_external("messages_sent", lambda: self._messages_sent)
        self.metrics.bind_external("messages_delivered", lambda: self._messages_delivered)
        self.metrics.bind_external("deliveries", lambda: self._deliveries)

        self._build_nodes(program_factory)
        self._build_channels()

    # ------------------------------------------------------------------ build

    def _build_nodes(self, program_factory: Callable[[int], NodeProgram]) -> None:
        s_low, s_high = self.config.clock_bounds
        drift_factory = self.config.clock_drift_factory
        for uid in range(self.topology.n):
            node_rng = self.random_source.stream(f"node/{uid}")
            # Only a drift model can draw from a clock stream: the default
            # constant-rate clocks get none (a stream's seed depends only on
            # its name, so skipping one leaves every other stream as it was).
            if drift_factory is None:
                clock = LocalClock(s_low=s_low, s_high=s_high)
            else:
                clock = LocalClock(
                    s_low=s_low,
                    s_high=s_high,
                    drift_model=drift_factory(uid),
                    rng=self.random_source.stream(f"clock/{uid}"),
                )
            node = Node(uid=uid, network=self, clock=clock, rng=node_rng)
            if self.config.size_known:
                node.knowledge["n"] = self.topology.n
            if self.config.knowledge_factory is not None:
                node.knowledge.update(self.config.knowledge_factory(uid))
            node.attach_program(program_factory(uid))
            self.nodes.append(node)

    def _resolve_delay_model(
        self, channel_id: int, source: int, destination: int
    ) -> DelayModel:
        model = self.config.delay_model
        if isinstance(model, (DelayDistribution, AdversarialDelay)):
            return model
        if callable(model):
            return model(channel_id, source, destination)
        raise TypeError(
            f"delay_model must be a DelayDistribution, AdversarialDelay or factory, "
            f"got {type(model)!r}"
        )

    def _build_channels(self) -> None:
        channel_cls = FifoChannel if self.config.fifo else Channel
        for channel_id, (source_uid, destination_uid) in enumerate(self.topology.edges):
            source = self.nodes[source_uid]
            destination = self.nodes[destination_uid]
            delay_model = self._resolve_delay_model(channel_id, source_uid, destination_uid)
            channel = channel_cls(
                channel_id=channel_id,
                source=source,
                destination=destination,
                destination_port=destination.in_degree,
                delay_model=delay_model,
                rng=self.random_source.stream(f"channel/{channel_id}"),
            )
            destination.add_in_channel(channel)
            source.add_out_channel(channel)
            self.channels.append(channel)

    # ------------------------------------------------------------------ hooks

    def _check_stop_predicates(self) -> None:
        for predicate in self._stop_predicates:
            if predicate():
                self.simulator.stop()
                return

    def stop_when(self, predicate: Callable[[], bool]) -> None:
        """Stop the simulation as soon as ``predicate()`` becomes true.

        The predicate is evaluated before every event; keep it cheap.  The
        check rides the engine's before-event hook (not an event listener),
        so it also covers handle-free fast-path deliveries, and runs without
        predicates cost nothing: the hook is only installed on first use.
        """
        self._stop_predicates.append(predicate)
        if len(self._stop_predicates) == 1:
            self.simulator.add_before_event(self._check_stop_predicates)

    def request_stop(self) -> None:
        """Programs may call this to end the simulation immediately."""
        self.simulator.stop()

    # -------------------------------------------------------------------- run

    def start(self) -> None:
        """Schedule every program's ``on_start`` at time 0 (idempotent)."""
        if self._started:
            return
        self._started = True
        for node in self.nodes:
            if node.program is not None:
                self.simulator.schedule(0.0, node.program.on_start)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        *,
        raise_on_limit: bool = False,
    ) -> float:
        """Start (if needed) and run the simulation; returns the stop time.

        ``raise_on_limit`` arms the divergence watchdog: exhausting either
        budget with live events pending raises
        :class:`~repro.sim.engine.SimulationDiverged` (a run ended by a
        satisfied :meth:`stop_when` predicate never raises).
        """
        self.start()
        return self.simulator.run(
            until=until, max_events=max_events, raise_on_limit=raise_on_limit
        )

    # ------------------------------------------------------------------ stats

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.simulator.now

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.topology.n

    def messages_sent(self) -> int:
        """Total messages transmitted so far."""
        return self._messages_sent

    def messages_delivered(self) -> int:
        """Total messages delivered so far."""
        return self._messages_delivered

    def programs(self) -> List[NodeProgram]:
        """The per-node program instances, in uid order."""
        return [node.program for node in self.nodes if node.program is not None]

    def results(self) -> List[Any]:
        """The per-node ``program.result()`` values, in uid order."""
        return [program.result() for program in self.programs()]

    def channel_between(self, source_uid: int, destination_uid: int) -> Optional[Channel]:
        """The first channel from ``source_uid`` to ``destination_uid`` (or ``None``)."""
        for channel in self.channels:
            if (
                channel.source.uid == source_uid
                and channel.destination.uid == destination_uid
            ):
                return channel
        return None

    def node_rng(self, uid: int) -> random.Random:
        """The per-node random stream (exposed for tests)."""
        return self.nodes[uid].rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(topology={self.topology.name!r}, n={self.n}, "
            f"channels={len(self.channels)}, t={self.now:.4g})"
        )
