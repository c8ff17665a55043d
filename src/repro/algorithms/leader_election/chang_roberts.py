"""Chang-Roberts leader election for unidirectional rings with identifiers.

The classical identifier-based election: every node sends its identifier
around the ring; identifiers smaller than the local one are swallowed, larger
ones are forwarded, and the node that receives its own identifier back has the
ring maximum and becomes leader.

Message complexity is O(n log n) on average over random identifier placements
and O(n^2) in the worst case -- both superlinear, which is the comparison
point experiment E6 sets against the ABE election's linear average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.algorithms.base import (
    ElectionTally,
    LeaderElectionProgram,
    RingElectionResult,
    run_ring_election,
)
from repro.network.adversary import AdversarialDelay
from repro.network.delays import DelayDistribution

__all__ = ["ChangRobertsProgram", "run_chang_roberts"]

RING_PORT = 0


@dataclass(frozen=True)
class _IdToken:
    """An identifier travelling around the ring."""

    identifier: int


class ChangRobertsProgram(LeaderElectionProgram):
    """Per-node Chang-Roberts program.

    Every node is an initiator.  The node's identifier comes from the
    ``"id"`` knowledge item installed by :func:`run_ring_election`.
    """

    def __init__(self, tally: ElectionTally) -> None:
        super().__init__(tally)
        self.identifier: Optional[int] = None
        self.passive = False

    def on_start(self) -> None:
        self.identifier = self.knowledge_item("id")
        if self.identifier is None:
            raise RuntimeError(
                "Chang-Roberts requires unique identifiers (knowledge key 'id')"
            )
        self.send(RING_PORT, _IdToken(self.identifier))

    def on_receive(self, payload: _IdToken, port: int) -> None:
        if not isinstance(payload, _IdToken):
            raise TypeError(f"unexpected payload {payload!r}")
        assert self.identifier is not None
        if payload.identifier == self.identifier:
            self.declare_leader()
            return
        if payload.identifier > self.identifier:
            self.passive = True
            self.send(RING_PORT, payload)
        # Smaller identifiers are swallowed.


def run_chang_roberts(
    n: int,
    *,
    delay: Optional[Union[DelayDistribution, AdversarialDelay]] = None,
    seed: int = 0,
    max_events: Optional[int] = None,
    on_budget: str = "stop",
) -> RingElectionResult:
    """Run Chang-Roberts on a unidirectional ring of size ``n``."""
    return run_ring_election(
        lambda uid, tally: ChangRobertsProgram(tally),
        n,
        algorithm_name="chang-roberts",
        bidirectional=False,
        delay=delay,
        seed=seed,
        with_identifiers=True,
        max_events=max_events,
        on_budget=on_budget,
    )
