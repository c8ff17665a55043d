"""Itai-Rodeh probabilistic leader election for anonymous rings of known size.

The reference algorithm for anonymous rings [Itai & Rodeh 1990], cited by the
paper as "the most optimal leader election algorithms known for anonymous,
synchronous rings".  Nodes have no identifiers; instead each election round
every active node draws a random identity from ``{1, .., n}`` and sends it
around the ring.  The round's maximum identity wins unless several nodes drew
it (detected via the ``unique`` bit), in which case the tied nodes run another
round among themselves.

The variant implemented here carries explicit round numbers in the messages
(the original formulation), which makes it correct on asynchronous -- and
hence ABE -- rings without FIFO assumptions: a message is compared to the
receiving active node's ``(round, id)`` pair lexicographically.

Expected message complexity is Theta(n log n): each round costs Theta(n)
messages per surviving candidate group and the expected number of rounds is
O(log n) in the worst case over adversarial timings (O(1) rounds for the
synchronous schedule).  Experiment E6 measures the actual cost next to the ABE
election.
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

__all__ = ["ItaiRodehProgram", "run_itai_rodeh"]

RING_PORT = 0


@dataclass(frozen=True)
class _IrToken:
    """An Itai-Rodeh election message.

    Attributes
    ----------
    round_number:
        Election round the message belongs to.
    identity:
        The random identity drawn by the originator for this round.
    hop:
        Hop counter (1 when freshly sent; ``n`` when back at the originator).
    unique:
        Cleared by any other active node that drew the same identity in the
        same round, signalling a tie.
    """

    round_number: int
    identity: int
    hop: int
    unique: bool


class ItaiRodehProgram(LeaderElectionProgram):
    """Per-node Itai-Rodeh program (anonymous, known ring size)."""

    def __init__(self, tally: ElectionTally, identity_space: Optional[int] = None) -> None:
        super().__init__(tally)
        self.identity_space = identity_space
        self.active = True
        self.round_number = 1
        self.identity: Optional[int] = None

    # ------------------------------------------------------------------ start

    def on_start(self) -> None:
        if self.n is None:
            raise RuntimeError("Itai-Rodeh requires the ring size n to be known")
        self._start_round(1)

    def _start_round(self, round_number: int) -> None:
        space = self.identity_space if self.identity_space is not None else self.n or 2
        self.round_number = round_number
        self.identity = self.rng.randint(1, space)
        self.tally.rounds = max(self.tally.rounds, round_number)
        self.metrics.increment("ir_rounds_started")
        self.send(
            RING_PORT,
            _IrToken(round_number=round_number, identity=self.identity, hop=1, unique=True),
        )

    # ---------------------------------------------------------------- receive

    def on_receive(self, payload: _IrToken, port: int) -> None:
        if not isinstance(payload, _IrToken):
            raise TypeError(f"unexpected payload {payload!r}")
        if not self.active:
            self.send(
                RING_PORT,
                _IrToken(
                    round_number=payload.round_number,
                    identity=payload.identity,
                    hop=payload.hop + 1,
                    unique=payload.unique,
                ),
            )
            return
        self._receive_while_active(payload)

    def _receive_while_active(self, payload: _IrToken) -> None:
        assert self.identity is not None
        ring_size = self.n or 0
        own_key = (self.round_number, self.identity)
        msg_key = (payload.round_number, payload.identity)

        if payload.hop == ring_size and msg_key == own_key:
            # The node's own message returned after a full traversal.
            if payload.unique:
                self.declare_leader()
            else:
                # Tie: every node that drew the winning identity starts the
                # next round.
                self._start_round(self.round_number + 1)
            return

        if msg_key > own_key:
            # A strictly stronger candidate exists: defer to it.
            self.active = False
            self.send(
                RING_PORT,
                _IrToken(
                    round_number=payload.round_number,
                    identity=payload.identity,
                    hop=payload.hop + 1,
                    unique=payload.unique,
                ),
            )
        elif msg_key == own_key:
            # Same round and identity but not the node's own message (hop < n):
            # another candidate drew the same identity -- mark the tie.
            self.send(
                RING_PORT,
                _IrToken(
                    round_number=payload.round_number,
                    identity=payload.identity,
                    hop=payload.hop + 1,
                    unique=False,
                ),
            )
        # Strictly weaker messages are swallowed.

    def result(self) -> bool:
        return self.elected


def run_itai_rodeh(
    n: int,
    *,
    delay: Optional[Union[DelayDistribution, AdversarialDelay]] = None,
    seed: int = 0,
    identity_space: Optional[int] = None,
    max_events: Optional[int] = None,
    on_budget: str = "stop",
) -> RingElectionResult:
    """Run Itai-Rodeh on an anonymous unidirectional ring of size ``n``."""
    return run_ring_election(
        lambda uid, tally: ItaiRodehProgram(tally, identity_space=identity_space),
        n,
        algorithm_name="itai-rodeh",
        bidirectional=False,
        delay=delay,
        seed=seed,
        with_identifiers=False,
        max_events=max_events,
        on_budget=on_budget,
    )
