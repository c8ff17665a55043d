"""Shared machinery for the leader-election baselines.

All baseline election programs report their outcome through a shared
:class:`ElectionTally` (mirroring :class:`repro.core.election.ElectionStatus`)
so that the comparison experiment (E6) can treat the ABE election and every
baseline uniformly: build a ring, run until the tally reports a leader, read
the message counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.network.adversary import AdversarialDelay
from repro.network.delays import DelayDistribution, ExponentialDelay
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import Topology, bidirectional_ring, unidirectional_ring

__all__ = [
    "ElectionTally",
    "LeaderElectionProgram",
    "RingElectionResult",
    "build_ring_election",
    "run_ring_election",
]

DelayModel = Union[DelayDistribution, AdversarialDelay]


@dataclass
class ElectionTally:
    """Shared outcome record for one baseline election run.

    ``leaders_elected`` is a plain integer hot-path counter (mirroring
    :class:`repro.core.election.ElectionStatus`); :meth:`bind_metrics`
    republishes it through the network's metrics collector under the
    historical counter name.
    """

    leader_uid: Optional[int] = None
    election_time: Optional[float] = None
    leaders_elected: int = 0
    rounds: int = 0

    @property
    def decided(self) -> bool:
        """Whether some node has announced itself leader."""
        return self.leader_uid is not None

    def bind_metrics(self, metrics) -> None:
        """Expose the tally's counters through ``metrics`` (idempotent)."""
        metrics.bind_external_sum("leaders_elected", self, lambda: self.leaders_elected)


class LeaderElectionProgram(NodeProgram):
    """Base class for baseline election programs.

    Provides the ``declare_leader`` helper that fills in the shared tally,
    marks the metrics and (by default) stops the simulation, so concrete
    algorithms only implement their message handling.
    """

    def __init__(self, tally: ElectionTally, stop_network_on_election: bool = True) -> None:
        super().__init__()
        self.tally = tally
        self.stop_network_on_election = stop_network_on_election
        self.elected = False

    def bind(self, node) -> None:
        """Bind to the node and publish the shared tally's counters."""
        super().bind(node)
        self.tally.bind_metrics(node.network.metrics)

    def declare_leader(self) -> None:
        """Announce this node as the leader and record the outcome."""
        node = self._require_node()
        self.elected = True
        self.tally.leader_uid = node.uid
        self.tally.election_time = self.now
        self.tally.leaders_elected += 1
        self.metrics.mark("leader_elected", self.now)
        self.trace("decide", algorithm=type(self).__name__)
        if self.stop_network_on_election:
            node.network.request_stop()

    @property
    def is_leader(self) -> bool:
        """Whether this node declared itself leader."""
        return self.elected

    def result(self) -> bool:
        """``True`` for the leader, ``False`` otherwise."""
        return self.elected


@dataclass
class RingElectionResult:
    """Outcome and cost of one baseline election run (shape mirrors E6 needs)."""

    algorithm: str
    n: int
    elected: bool
    leader_uid: Optional[int]
    election_time: Optional[float]
    messages_total: int
    leaders_elected: int
    events_processed: int
    seed: int


def build_ring_election(
    program_factory: Callable[[int, ElectionTally], LeaderElectionProgram],
    n: int,
    *,
    bidirectional: bool = False,
    delay: Optional[DelayModel] = None,
    seed: int = 0,
    fifo: bool = False,
    with_identifiers: bool = True,
    size_known: bool = True,
    topology: Optional[Topology] = None,
) -> tuple:
    """Construct the network and shared tally for one baseline election run.

    Returns ``(network, tally)``.  Exposed separately from
    :func:`run_ring_election` (mirroring
    :func:`repro.core.runner.build_election_network`) so tests and the
    differential harness can inspect or instrument the network before
    running it.

    Parameters
    ----------
    program_factory:
        ``(uid, tally) -> LeaderElectionProgram``.
    with_identifiers:
        Whether nodes receive a unique identifier under the knowledge key
        ``"id"`` (a pseudo-random permutation of ``0..n-1`` derived from the
        seed).  Anonymous algorithms (Itai-Rodeh) set this to ``False``.
    bidirectional:
        Ring orientation; Franklin's algorithm needs both directions.
    """
    if n < 2:
        raise ValueError("ring elections need n >= 2")
    if topology is None:
        topology = bidirectional_ring(n) if bidirectional else unidirectional_ring(n)
    delay_model: DelayModel = delay if delay is not None else ExponentialDelay(mean=1.0)
    tally = ElectionTally()

    knowledge_factory = None
    if with_identifiers:
        # A deterministic, seed-dependent permutation of 0..n-1 as identifiers.
        import random as _random

        permutation = list(range(n))
        _random.Random(seed ^ 0x5EED1D5).shuffle(permutation)

        def knowledge_factory(uid: int):  # noqa: D401 - small closure
            return {"id": permutation[uid]}

    config = NetworkConfig(
        topology=topology,
        delay_model=delay_model,
        seed=seed,
        fifo=fifo,
        size_known=size_known,
        knowledge_factory=knowledge_factory,
        enable_trace=False,
    )
    network = Network(config, lambda uid: program_factory(uid, tally))
    network.stop_when(lambda: tally.decided)
    return network, tally


def run_ring_election(
    program_factory: Callable[[int, ElectionTally], LeaderElectionProgram],
    n: int,
    *,
    algorithm_name: str = "baseline",
    bidirectional: bool = False,
    delay: Optional[DelayModel] = None,
    seed: int = 0,
    fifo: bool = False,
    with_identifiers: bool = True,
    size_known: bool = True,
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
    topology: Optional[Topology] = None,
    on_budget: str = "stop",
) -> RingElectionResult:
    """Run a baseline leader election on a ring and collect cost metrics.

    See :func:`build_ring_election` for the parameters.  ``on_budget="raise"``
    arms the divergence watchdog: exhausting ``max_events``/``max_time``
    without electing raises :class:`~repro.sim.engine.SimulationDiverged`
    instead of returning a truncated result.
    """
    if on_budget not in ("stop", "raise"):
        raise ValueError(f"on_budget must be 'stop' or 'raise', got {on_budget!r}")
    network, tally = build_ring_election(
        program_factory,
        n,
        bidirectional=bidirectional,
        delay=delay,
        seed=seed,
        fifo=fifo,
        with_identifiers=with_identifiers,
        size_known=size_known,
        topology=topology,
    )
    if max_events is None:
        max_events = 500_000 + 50_000 * n
    network.run(
        until=max_time, max_events=max_events, raise_on_limit=(on_budget == "raise")
    )
    return RingElectionResult(
        algorithm=algorithm_name,
        n=n,
        elected=tally.decided,
        leader_uid=tally.leader_uid,
        election_time=tally.election_time,
        messages_total=network.messages_sent(),
        leaders_elected=tally.leaders_elected,
        events_processed=network.simulator.events_processed,
        seed=seed,
    )
