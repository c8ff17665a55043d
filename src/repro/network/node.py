"""Nodes and node programs.

A :class:`Node` is the simulation-level representation of a process: it owns a
local clock, outgoing channels (numbered by local *port*), a per-node random
stream and a reference to the enclosing :class:`~repro.network.network.Network`.

A :class:`NodeProgram` is the algorithm running on a node.  Programs are
written in an actor style: they react to :meth:`NodeProgram.on_start`,
:meth:`NodeProgram.on_receive` and timers/ticks they themselves set up, and
they act on the world exclusively through the protected helpers (``send``,
``set_timer``).  Programs for *anonymous* algorithms (such as
the ABE election algorithm) must not base decisions on ``self.node.uid`` --
the uid exists only for simulation bookkeeping and tracing.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.sim.clock import LocalClock
from repro.sim.events import EventHandle, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.network.channel import Channel
    from repro.network.network import Network

__all__ = ["Node", "NodeProgram"]


class Node:
    """A process in the simulated network.

    Nodes are created by :class:`~repro.network.network.Network`; user code
    normally interacts with them only through the program API or when reading
    results (``network.nodes[i].program``).
    """

    def __init__(
        self,
        uid: int,
        network: "Network",
        clock: LocalClock,
        rng: random.Random,
    ) -> None:
        self.uid = uid
        self.network = network
        self.clock = clock
        self.rng = rng
        self.out_channels: List["Channel"] = []
        self.in_channels: List["Channel"] = []
        self.program: Optional[NodeProgram] = None
        self.knowledge: Dict[str, Any] = {}

    # ------------------------------------------------------------------ wiring

    def attach_program(self, program: "NodeProgram") -> None:
        """Install the program that will run on this node."""
        self.program = program
        program.bind(self)

    def add_out_channel(self, channel: "Channel") -> int:
        """Register an outgoing channel; returns its local port number."""
        self.out_channels.append(channel)
        return len(self.out_channels) - 1

    def add_in_channel(self, channel: "Channel") -> int:
        """Register an incoming channel; returns its local in-port number."""
        self.in_channels.append(channel)
        return len(self.in_channels) - 1

    # ------------------------------------------------------------------ access

    @property
    def out_degree(self) -> int:
        """Number of outgoing channels."""
        return len(self.out_channels)

    @property
    def in_degree(self) -> int:
        """Number of incoming channels."""
        return len(self.in_channels)

    @property
    def now(self) -> float:
        """Current real simulation time."""
        return self.network.simulator.now

    @property
    def local_time(self) -> float:
        """Current reading of this node's local clock."""
        return self.clock.local_time(self.now)

    # ----------------------------------------------------------------- actions

    def send(self, port: int, payload: Any) -> None:
        """Transmit ``payload`` over the outgoing channel at ``port``."""
        if not (0 <= port < len(self.out_channels)):
            raise ValueError(
                f"node {self.uid} has no outgoing port {port} "
                f"(out_degree={self.out_degree})"
            )
        self.out_channels[port].transmit(payload)

    def deliver(self, payload: Any, in_port: int) -> None:
        """Hand a delivered payload to the program (called by channels)."""
        if self.program is None:
            raise RuntimeError(f"node {self.uid} has no program attached")
        # Per-message hot path: a plain integer increment on the network; the
        # metrics collector reads it back through an externally bound counter.
        self.network._deliveries += 1
        self.program.on_receive(payload, in_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(uid={self.uid}, out={self.out_degree}, in={self.in_degree})"


class NodeProgram:
    """Base class for algorithms running on a node.

    Subclasses override :meth:`on_start` and :meth:`on_receive`, and may use
    :meth:`set_timer` to schedule local activity.  The
    base class offers convenience accessors (``rng``, ``now``, ``n``, ...) and
    performs the node binding.
    """

    def __init__(self) -> None:
        self.node: Optional[Node] = None

    # ------------------------------------------------------------------ wiring

    def bind(self, node: Node) -> None:
        """Associate the program with its node (called by the network)."""
        self.node = node

    def _require_node(self) -> Node:
        if self.node is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a node yet; "
                "programs must be attached via Network"
            )
        return self.node

    # ----------------------------------------------------------------- handles

    @property
    def rng(self) -> random.Random:
        """Per-node random stream (independent of channel delays)."""
        return self._require_node().rng

    @property
    def now(self) -> float:
        """Current real simulation time."""
        return self._require_node().now

    @property
    def local_time(self) -> float:
        """Current local clock reading."""
        return self._require_node().local_time

    @property
    def out_degree(self) -> int:
        """Number of outgoing ports."""
        return self._require_node().out_degree

    @property
    def in_degree(self) -> int:
        """Number of incoming ports."""
        return self._require_node().in_degree

    @property
    def n(self) -> Optional[int]:
        """Network size, if the network was configured as size-known.

        The ABE election algorithm requires known ring size ``n``; other
        algorithms (e.g. flooding) work without it.
        """
        return self._require_node().knowledge.get("n")

    def knowledge_item(self, key: str, default: Any = None) -> Any:
        """Read an item of a-priori knowledge (``n``, node identifier, ...)."""
        return self._require_node().knowledge.get(key, default)

    # ----------------------------------------------------------------- actions

    def send(self, port: int, payload: Any) -> None:
        """Send ``payload`` on outgoing port ``port``."""
        self._require_node().send(port, payload)

    def send_all(self, payload: Any) -> None:
        """Send ``payload`` on every outgoing port."""
        node = self._require_node()
        for port in range(node.out_degree):
            node.send(port, payload)

    # ------------------------------------------------------------- neighbours
    #
    # These helpers expose neighbour *uids*, which anonymous algorithms (the
    # ABE election, Itai-Rodeh) must not use; they exist for the identifier
    # based baselines and wave algorithms that legitimately know who their
    # neighbours are.

    def out_neighbor(self, port: int) -> int:
        """Uid of the node reached via outgoing ``port``."""
        node = self._require_node()
        if not (0 <= port < node.out_degree):
            raise ValueError(f"no outgoing port {port}")
        return node.out_channels[port].destination.uid

    def in_neighbor(self, port: int) -> int:
        """Uid of the node whose messages arrive on incoming ``port``."""
        node = self._require_node()
        if not (0 <= port < node.in_degree):
            raise ValueError(f"no incoming port {port}")
        return node.in_channels[port].source.uid

    def out_neighbors(self) -> list:
        """Uids reachable via the outgoing ports, in port order."""
        node = self._require_node()
        return [channel.destination.uid for channel in node.out_channels]

    def port_to(self, neighbor_uid: int) -> int:
        """The outgoing port leading to ``neighbor_uid`` (first match).

        Raises
        ------
        ValueError
            If no outgoing channel leads to that node.
        """
        node = self._require_node()
        for port, channel in enumerate(node.out_channels):
            if channel.destination.uid == neighbor_uid:
                return port
        raise ValueError(f"node {node.uid} has no outgoing channel to {neighbor_uid}")

    def set_timer(
        self, local_delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` after ``local_delay`` units of *local* time."""
        node = self._require_node()
        real_delay = node.clock.real_duration_for_local(node.now, local_delay)
        return node.network.simulator.schedule(
            real_delay, callback, kind=EventKind.TIMER
        )

    def trace(self, category: str, **details: Any) -> None:
        """Record a trace event attributed to this node."""
        node = self._require_node()
        node.network.tracer.record(node.now, category, node.uid, **details)

    @property
    def metrics(self):
        """The network-wide :class:`~repro.sim.monitor.MetricsCollector`."""
        return self._require_node().network.metrics

    # --------------------------------------------------------------- overrides

    def on_start(self) -> None:
        """Called once at simulation start (time 0)."""

    def on_receive(self, payload: Any, port: int) -> None:
        """Called when a message is delivered on incoming ``port``."""

    def halt(self) -> None:
        """Crash-stop: cancel the program's own pending local activity.

        Called by the crash path of :class:`~repro.network.faults.FaultInjector`
        once the node's deliveries are swallowed; programs that schedule
        their own wake-ups override it.
        """

    def result(self) -> Any:
        """Algorithm-specific final result (e.g. elected / not elected)."""
        return None
