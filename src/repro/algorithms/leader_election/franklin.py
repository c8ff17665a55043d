"""Franklin's election algorithm for bidirectional rings.

Franklin's O(n log n) election: in each round every active node sends its
identifier to both neighbours and receives the identifiers of its nearest
active neighbours on both sides (relayed transparently by passive nodes).  A
node stays active only if its identifier is a strict local maximum; receiving
its own identifier means it is the only active node left and it becomes
leader.  At least half of the active nodes drop out per round, giving the
logarithmic round count.

Messages carry the round number so that rounds may overlap in an asynchronous
(ABE) execution; a node buffers messages of future rounds until it gets there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.algorithms.base import (
    ElectionTally,
    LeaderElectionProgram,
    RingElectionResult,
    run_ring_election,
)
from repro.network.adversary import AdversarialDelay
from repro.network.delays import DelayDistribution

__all__ = ["FranklinProgram", "run_franklin"]

#: Port numbering in :func:`repro.network.topology.bidirectional_ring`:
#: port 0 sends clockwise (to uid + 1), port 1 sends counter-clockwise.
CLOCKWISE = 0
COUNTER_CLOCKWISE = 1


@dataclass(frozen=True)
class _FranklinToken:
    """An identifier travelling in one direction during one round."""

    round_number: int
    identifier: int
    direction: int  # the port it keeps travelling on


class FranklinProgram(LeaderElectionProgram):
    """Per-node Franklin program (bidirectional ring, unique identifiers)."""

    def __init__(self, tally: ElectionTally) -> None:
        super().__init__(tally)
        self.identifier: Optional[int] = None
        self.active = True
        self.round_number = 1
        # Buffered identifiers keyed by (round, arrival side).
        self._pending: Dict[Tuple[int, int], int] = {}

    def on_start(self) -> None:
        self.identifier = self.knowledge_item("id")
        if self.identifier is None:
            raise RuntimeError(
                "Franklin's algorithm requires unique identifiers (knowledge key 'id')"
            )
        self._send_round()

    def _send_round(self) -> None:
        assert self.identifier is not None
        self.tally.rounds = max(self.tally.rounds, self.round_number)
        for direction in (CLOCKWISE, COUNTER_CLOCKWISE):
            self.send(
                direction,
                _FranklinToken(
                    round_number=self.round_number,
                    identifier=self.identifier,
                    direction=direction,
                ),
            )

    # ---------------------------------------------------------------- receive

    def on_receive(self, payload: _FranklinToken, port: int) -> None:
        if not isinstance(payload, _FranklinToken):
            raise TypeError(f"unexpected payload {payload!r}")
        if not self.active:
            # Passive nodes relay the token onward in its direction of travel.
            self.send(payload.direction, payload)
            return
        if payload.identifier == self.identifier:
            # Own identifier came back around: no other active node remains.
            self.declare_leader()
            return
        arrival_side = payload.direction
        self._pending[(payload.round_number, arrival_side)] = payload.identifier
        self._try_complete_round()

    def _try_complete_round(self) -> None:
        assert self.identifier is not None
        key_cw = (self.round_number, CLOCKWISE)
        key_ccw = (self.round_number, COUNTER_CLOCKWISE)
        if key_cw not in self._pending or key_ccw not in self._pending:
            return
        from_cw = self._pending.pop(key_cw)
        from_ccw = self._pending.pop(key_ccw)
        strongest_neighbour = max(from_cw, from_ccw)
        if strongest_neighbour > self.identifier:
            self.active = False
            # Any buffered future-round tokens must now be relayed onward,
            # unchanged, in their original direction of travel.
            for (round_number, side), identifier in sorted(self._pending.items()):
                self.send(
                    side,
                    _FranklinToken(
                        round_number=round_number,
                        identifier=identifier,
                        direction=side,
                    ),
                )
            self._pending.clear()
            return
        # Local maximum: proceed to the next round.
        self.round_number += 1
        self._send_round()
        self._try_complete_round()


def run_franklin(
    n: int,
    *,
    delay: Optional[Union[DelayDistribution, AdversarialDelay]] = None,
    seed: int = 0,
    max_events: Optional[int] = None,
    on_budget: str = "stop",
) -> RingElectionResult:
    """Run Franklin's algorithm on a bidirectional FIFO ring of size ``n``."""
    return run_ring_election(
        lambda uid, tally: FranklinProgram(tally),
        n,
        algorithm_name="franklin",
        bidirectional=True,
        delay=delay,
        seed=seed,
        fifo=True,
        with_identifiers=True,
        max_events=max_events,
        on_budget=on_budget,
    )
