"""Dolev-Klawe-Rodeh (Peterson) election for unidirectional rings.

The classical O(n log n) *worst-case* election for unidirectional rings with
unique identifiers (discovered independently by Peterson).  Execution proceeds
in phases; in every phase an active node compares the identifier of its
nearest active predecessor against both its own identifier and that of the
second-nearest active predecessor, and survives exactly when the predecessor's
identifier is the local maximum of the three.  At least half of the active
nodes become relays each phase, hence the logarithmic number of phases.

The algorithm assumes FIFO channels (a phase-2 message must not overtake the
phase-1 message it follows); :func:`run_dolev_klawe_rodeh` therefore builds
the ring with FIFO channels.
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

__all__ = ["DolevKlaweRodehProgram", "run_dolev_klawe_rodeh"]

RING_PORT = 0


@dataclass(frozen=True)
class _DkrToken:
    """A DKR message: ``kind`` is 1 (first forward) or 2 (second forward)."""

    kind: int
    value: int


class DolevKlaweRodehProgram(LeaderElectionProgram):
    """Per-node Dolev-Klawe-Rodeh program."""

    def __init__(self, tally: ElectionTally) -> None:
        super().__init__(tally)
        self.current_value: Optional[int] = None
        self.neighbour_value: Optional[int] = None
        self.relay = False

    def on_start(self) -> None:
        identifier = self.knowledge_item("id")
        if identifier is None:
            raise RuntimeError(
                "Dolev-Klawe-Rodeh requires unique identifiers (knowledge key 'id')"
            )
        self.current_value = identifier
        self.send(RING_PORT, _DkrToken(kind=1, value=identifier))

    def on_receive(self, payload: _DkrToken, port: int) -> None:
        if not isinstance(payload, _DkrToken):
            raise TypeError(f"unexpected payload {payload!r}")
        if self.relay:
            self.send(RING_PORT, payload)
            return
        if payload.kind == 1:
            self._receive_first(payload)
        else:
            self._receive_second(payload)

    def _receive_first(self, payload: _DkrToken) -> None:
        assert self.current_value is not None
        if payload.value == self.current_value:
            # The value survived a full circuit of active nodes: it is the
            # global maximum and this node currently represents it.
            self.declare_leader()
            return
        self.neighbour_value = payload.value
        self.send(RING_PORT, _DkrToken(kind=2, value=payload.value))

    def _receive_second(self, payload: _DkrToken) -> None:
        assert self.current_value is not None
        neighbour = self.neighbour_value
        if neighbour is not None and neighbour > self.current_value and neighbour > payload.value:
            # The nearest active predecessor's value is a local maximum: adopt
            # it and stay active for the next phase.
            self.current_value = neighbour
            self.neighbour_value = None
            self.send(RING_PORT, _DkrToken(kind=1, value=self.current_value))
        else:
            self.relay = True


def run_dolev_klawe_rodeh(
    n: int,
    *,
    delay: Optional[Union[DelayDistribution, AdversarialDelay]] = None,
    seed: int = 0,
    max_events: Optional[int] = None,
    on_budget: str = "stop",
) -> RingElectionResult:
    """Run Dolev-Klawe-Rodeh on a unidirectional FIFO ring of size ``n``."""
    return run_ring_election(
        lambda uid, tally: DolevKlaweRodehProgram(tally),
        n,
        algorithm_name="dolev-klawe-rodeh",
        bidirectional=False,
        delay=delay,
        seed=seed,
        fifo=True,
        with_identifiers=True,
        max_events=max_events,
        on_budget=on_budget,
    )
