"""Common machinery for synchronizer programs and the run harness.

A *synchronizer program* is a :class:`~repro.network.node.NodeProgram` that
hosts one :class:`~repro.algorithms.synchronous.SyncProcess` and simulates
global rounds for it on an asynchronous / ABD / ABE network.  All concrete
synchronizers share the same skeleton (round bookkeeping, inbox buffering,
message classification into *algorithm* and *control* traffic) implemented
here; they differ only in *when* a node may advance to the next round.

:func:`run_synchronized` is the harness used by tests, examples and experiment
E5: it wires a topology, a client algorithm and a synchronizer onto a network
with a chosen delay model and returns a :class:`SynchronizedRunResult` with
the per-round message accounting that Theorem 1 talks about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.algorithms.synchronous import SyncContext, SyncProcess
from repro.network.adversary import AdversarialDelay
from repro.network.delays import DelayDistribution, ExponentialDelay
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import Topology

__all__ = [
    "SynchronizerStatus",
    "SynchronizerProgram",
    "SynchronizedRunResult",
    "run_synchronized",
]

DelayModel = Union[DelayDistribution, AdversarialDelay]


@dataclass
class SynchronizerStatus:
    """Shared progress record for one synchronized run.

    The message/round tallies are the run's hot-path counters: programs bump
    them with plain ``+= 1`` statements (one classification per sent message
    is the synchronizers' per-message overhead) and :meth:`bind_metrics`
    republishes them through the network's metrics collector under the
    historical counter names, so ``metrics.count("algorithm_messages")`` et
    al. keep working unchanged for readers.
    """

    total_nodes: int = 0
    finished_nodes: int = 0
    late_messages: int = 0
    max_round_completed: int = -1
    algorithm_messages: int = 0
    control_messages: int = 0
    rounds_completed: int = 0

    def __post_init__(self) -> None:
        # The collector bind_metrics last registered with; not a field.
        self._metrics = None

    @property
    def all_finished(self) -> bool:
        """Whether every node has completed its final round."""
        return self.total_nodes > 0 and self.finished_nodes >= self.total_nodes

    def bind_metrics(self, metrics) -> None:
        """Expose the shared counters through ``metrics`` (idempotent).

        Every program calls this from ``bind``; only the first call per
        collector registers the getters.
        """
        if metrics is self._metrics:
            return
        self._metrics = metrics
        metrics.bind_external_sum(
            "algorithm_messages", self, lambda: self.algorithm_messages
        )
        metrics.bind_external_sum(
            "control_messages", self, lambda: self.control_messages
        )
        metrics.bind_external_sum(
            "rounds_completed", self, lambda: self.rounds_completed
        )


class SynchronizerProgram(NodeProgram):
    """Base class for synchronizer programs.

    Parameters
    ----------
    process:
        The hosted synchronous algorithm instance (one per node).
    total_rounds:
        Number of global rounds to simulate.  All client algorithms in this
        library run for an a-priori known number of rounds, which keeps the
        synchronizers free of a separate global-termination-detection layer
        (a deliberate simplification documented in DESIGN.md).
    status:
        Shared :class:`SynchronizerStatus`.
    """

    def __init__(
        self,
        process: SyncProcess,
        total_rounds: int,
        status: SynchronizerStatus,
    ) -> None:
        super().__init__()
        if total_rounds < 1:
            raise ValueError("total_rounds must be >= 1")
        self.process = process
        self.total_rounds = int(total_rounds)
        self.status = status
        self.current_round = 0
        self.finished = False
        #: Buffered algorithm payloads keyed by round, then by in-port.
        self.inboxes: Dict[int, Dict[int, Any]] = {}
        self.algorithm_messages_sent = 0
        self.control_messages_sent = 0

    # ----------------------------------------------------------------- set-up

    def bind(self, node) -> None:
        """Bind to the node and publish the shared status counters."""
        super().bind(node)
        self.status.bind_metrics(node.network.metrics)

    def on_start(self) -> None:
        node = self._require_node()
        self.process.setup(
            SyncContext(
                uid=node.uid,
                n=node.network.n,
                out_degree=self.out_degree,
                in_degree=self.in_degree,
            )
        )
        self.status.total_nodes = node.network.n
        outbox = self.process.initial_messages()
        self.begin_round(0, outbox)

    # ------------------------------------------------------------- accounting

    def send_algorithm(self, port: int, payload: Any) -> None:
        """Send a client-algorithm payload (counted as algorithm traffic)."""
        self.algorithm_messages_sent += 1
        self.status.algorithm_messages += 1
        self.send(port, payload)

    def send_control(self, port: int, payload: Any) -> None:
        """Send a synchronizer control payload (counted as control traffic)."""
        self.control_messages_sent += 1
        self.status.control_messages += 1
        self.send(port, payload)

    def record_algorithm_payload(self, round_index: int, in_port: int, payload: Any) -> None:
        """Buffer an algorithm payload delivered for ``round_index``."""
        self.inboxes.setdefault(round_index, {})[in_port] = payload

    # -------------------------------------------------------------- round API

    def begin_round(self, round_index: int, outbox: Dict[int, Any]) -> None:
        """Start round ``round_index`` by transmitting its messages.

        Concrete synchronizers override this to add their control traffic
        (padding messages, acknowledgements, safety announcements, timers).
        """
        raise NotImplementedError

    def complete_round(self, round_index: int) -> None:
        """Deliver the round's inbox to the process and move on (or finish)."""
        inbox = self.inboxes.pop(round_index, {})
        outbox = self.process.compute(round_index, inbox)
        self.status.max_round_completed = max(
            self.status.max_round_completed, round_index
        )
        self.status.rounds_completed += 1
        next_round = round_index + 1
        if next_round >= self.total_rounds:
            self._finish()
            return
        self.current_round = next_round
        self.begin_round(next_round, outbox)

    def _finish(self) -> None:
        if self.finished:
            return
        self.finished = True
        self.status.finished_nodes += 1
        self.trace("sync-finished", rounds=self.total_rounds)
        if self.status.all_finished:
            self._require_node().network.request_stop()

    # ----------------------------------------------------------------- result

    def result(self) -> Any:
        """The hosted process's result."""
        return self.process.result()


@dataclass
class SynchronizedRunResult:
    """Outcome and cost accounting of one synchronized execution."""

    topology_name: str
    synchronizer: str
    n: int
    rounds: int
    results: List[Any] = field(default_factory=list)
    total_messages: int = 0
    algorithm_messages: int = 0
    control_messages: int = 0
    late_messages: int = 0
    elapsed_time: float = 0.0
    completed: bool = True

    @property
    def messages_per_round(self) -> float:
        """Average messages (algorithm + control) per simulated round."""
        return self.total_messages / self.rounds if self.rounds else 0.0

    @property
    def control_messages_per_round(self) -> float:
        """Average control messages per simulated round."""
        return self.control_messages / self.rounds if self.rounds else 0.0


def run_synchronized(
    topology: Topology,
    process_factory: Callable[[int], SyncProcess],
    synchronizer_factory: Callable[
        [int, SyncProcess, int, SynchronizerStatus], SynchronizerProgram
    ],
    *,
    total_rounds: int,
    synchronizer_name: str = "synchronizer",
    delay: Optional[DelayModel] = None,
    seed: int = 0,
    fifo: bool = False,
    knowledge_factory: Optional[Callable[[int], Dict[str, Any]]] = None,
    max_events: Optional[int] = None,
    max_time: Optional[float] = None,
) -> SynchronizedRunResult:
    """Run a synchronous algorithm under a synchronizer on a simulated network.

    Parameters
    ----------
    topology:
        Communication topology (must contain both directions of every link for
        the alpha and beta synchronizers).
    process_factory:
        ``uid -> SyncProcess`` building the client algorithm instance.
    synchronizer_factory:
        ``(uid, process, total_rounds, status) -> SynchronizerProgram``.
    total_rounds:
        Number of global rounds to simulate.
    delay:
        Channel delay model (default: exponential with mean 1 -- an ABE
        network).
    """
    delay_model: DelayModel = delay if delay is not None else ExponentialDelay(mean=1.0)
    status = SynchronizerStatus()

    def program_factory(uid: int) -> SynchronizerProgram:
        process = process_factory(uid)
        return synchronizer_factory(uid, process, total_rounds, status)

    config = NetworkConfig(
        topology=topology,
        delay_model=delay_model,
        seed=seed,
        fifo=fifo,
        size_known=True,
        knowledge_factory=knowledge_factory,
        enable_trace=False,
    )
    network = Network(config, program_factory)
    network.stop_when(lambda: status.all_finished)
    if max_events is None:
        max_events = 200_000 + 20_000 * topology.n * max(1, total_rounds)
    network.run(until=max_time, max_events=max_events)

    return SynchronizedRunResult(
        topology_name=topology.name,
        synchronizer=synchronizer_name,
        n=topology.n,
        rounds=total_rounds,
        results=network.results(),
        total_messages=network.messages_sent(),
        algorithm_messages=int(network.metrics.count("algorithm_messages")),
        control_messages=int(network.metrics.count("control_messages")),
        late_messages=status.late_messages,
        elapsed_time=network.now,
        completed=status.all_finished,
    )
