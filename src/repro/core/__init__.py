"""The paper's primary contribution: ABE-network leader election.

This package implements Section 3 of the paper -- the probabilistic leader
election algorithm for anonymous, unidirectional ABE rings of known size --
together with the helpers the experiments need:

* :mod:`repro.core.messages` -- the ``<hop>`` messages travelling on the ring.
* :mod:`repro.core.activation` -- the activation-probability schedules (the
  paper's adaptive ``1 - (1 - A0)^d`` rule and the naive constant rule used as
  an ablation baseline) and the one-draw-per-idle-spell wait both engines
  use.
* :mod:`repro.core.election` -- the per-node state machine
  (idle / active / passive / leader).
* :mod:`repro.core.runner` -- :func:`~repro.core.runner.run_election`, the
  high-level API that builds an ABE ring, runs the algorithm and returns an
  :class:`~repro.core.runner.ElectionResult`.
* :mod:`repro.core.vector_core` -- the columnar numpy engine behind
  ``run_election(core="vector")``: same state machine and activation rule,
  flat per-node state, one event heap.
* :mod:`repro.core.analysis` -- closed-form reference quantities (wake-up
  pressure, asymptotic baselines) used by tests and benchmark tables.
* :mod:`repro.core.verification` -- execution checkers for the safety and
  liveness obligations listed in DESIGN.md.
"""

from repro.core.messages import HopMessage
from repro.core.activation import (
    ActivationSchedule,
    AdaptiveActivation,
    ConstantActivation,
)
from repro.core.election import AbeElectionProgram, ElectionStatus, NodeState
from repro.core.runner import (
    ELECTION_CORES,
    ElectionResult,
    run_election,
    run_election_on_network,
)
from repro.core.vector_core import VectorRingElection, run_vector_election
from repro.core.analysis import (
    async_ring_message_lower_bound,
    combined_idle_probability,
    expected_ticks_until_first_activation,
    recommended_a0,
    ring_pressure_per_tick,
    wakeup_pressure,
)
from repro.core.verification import ElectionInvariantError, verify_election

__all__ = [
    "HopMessage",
    "ActivationSchedule",
    "AdaptiveActivation",
    "ConstantActivation",
    "AbeElectionProgram",
    "ElectionStatus",
    "NodeState",
    "ELECTION_CORES",
    "ElectionResult",
    "run_election",
    "run_election_on_network",
    "VectorRingElection",
    "run_vector_election",
    "wakeup_pressure",
    "combined_idle_probability",
    "expected_ticks_until_first_activation",
    "recommended_a0",
    "ring_pressure_per_tick",
    "async_ring_message_lower_bound",
    "ElectionInvariantError",
    "verify_election",
]
