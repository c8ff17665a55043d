"""Network substrate: nodes, channels, delay models, topologies, adversaries.

This package contains everything needed to *execute* a message-passing
algorithm over a simulated network:

* :mod:`repro.network.delays` -- the delay-distribution hierarchy.  The
  distinction between distributions with a hard bound, a bounded expectation,
  or neither is exactly the distinction between ABD, ABE and plain
  asynchronous networks (see :mod:`repro.models`).
* :mod:`repro.network.retransmission`, :mod:`repro.network.queueing`,
  :mod:`repro.network.routing` -- the three concrete sources of unbounded
  delay motivated in Section 1 of the paper (lossy-channel retransmission,
  bandwidth-limited queueing, dynamic routing).
* :mod:`repro.network.node`, :mod:`repro.network.channel`,
  :mod:`repro.network.network` -- the executable network: nodes run
  :class:`~repro.network.node.NodeProgram` instances and exchange messages
  over channels that sample delays from a delay model.
* :mod:`repro.network.topology` -- ring/line/star/tree/grid/random topologies.
* :mod:`repro.network.adversary` -- adversarial delay schedulers for
  worst-case explorations within a model's constraints.
"""

from repro.network.delays import (
    ConstantDelay,
    DelayDistribution,
    EmpiricalDelay,
    ErlangDelay,
    ExponentialDelay,
    HyperExponentialDelay,
    LogNormalDelay,
    MixtureDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    TruncatedDelay,
    UniformDelay,
    WeibullDelay,
)
from repro.network.retransmission import (
    GeometricRetransmissionDelay,
    LossyChannelModel,
    expected_transmissions,
)
from repro.network.queueing import MM1SojournDelay, FifoLinkState
from repro.network.routing import DynamicRoutingDelay
from repro.network.messages import Envelope
from repro.network.node import Node, NodeProgram
from repro.network.channel import Channel, FifoChannel
from repro.network.topology import (
    Topology,
    bidirectional_ring,
    complete_graph,
    grid_topology,
    line_topology,
    random_connected,
    star_topology,
    tree_topology,
    unidirectional_ring,
)
from repro.network.network import Network, NetworkConfig
from repro.network.adversary import (
    AdversarialDelay,
    MaxDelayAdversary,
    TargetedSlowdownAdversary,
)
from repro.network.faults import CrashStopFault, FaultInjector, MessageLossFault
from repro.network.churn import (
    CrashEvent,
    FaultScript,
    LinkDownEvent,
    LinkUpEvent,
    PeriodicChurn,
    RecoverEvent,
    ScheduledFaultInjector,
    StabilizationMonitor,
)

__all__ = [
    "DelayDistribution",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "ShiftedExponentialDelay",
    "ErlangDelay",
    "ParetoDelay",
    "LogNormalDelay",
    "WeibullDelay",
    "HyperExponentialDelay",
    "MixtureDelay",
    "TruncatedDelay",
    "EmpiricalDelay",
    "GeometricRetransmissionDelay",
    "LossyChannelModel",
    "expected_transmissions",
    "MM1SojournDelay",
    "FifoLinkState",
    "DynamicRoutingDelay",
    "Envelope",
    "Node",
    "NodeProgram",
    "Channel",
    "FifoChannel",
    "Topology",
    "unidirectional_ring",
    "bidirectional_ring",
    "line_topology",
    "star_topology",
    "complete_graph",
    "tree_topology",
    "grid_topology",
    "random_connected",
    "Network",
    "NetworkConfig",
    "AdversarialDelay",
    "MaxDelayAdversary",
    "TargetedSlowdownAdversary",
    "MessageLossFault",
    "CrashStopFault",
    "FaultInjector",
    "CrashEvent",
    "RecoverEvent",
    "LinkDownEvent",
    "LinkUpEvent",
    "PeriodicChurn",
    "FaultScript",
    "ScheduledFaultInjector",
    "StabilizationMonitor",
]
