"""Messages of the ABE election algorithm.

The algorithm of Section 3 uses a single message type ``<hop>`` where
``hop in {1, ..., n}`` is the hop counter.  For analysis and tracing we attach
two extra fields that the algorithm itself never reads:

* ``token_id`` identifies the *logical* message as it is forwarded around the
  ring (each forward creates a fresh :class:`HopMessage`, but the token id is
  preserved), and
* ``knockout`` records whether the message has knocked out an idle node at any
  point in its lifetime -- the paper calls such messages *knockout messages*.

Keeping this metadata out of the algorithm's decision logic preserves
anonymity and keeps the reproduction faithful: the algorithm behaves exactly
as if the message were the bare ``<hop>``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = ["HopMessage"]

_token_counter = itertools.count()


def _next_token_id() -> int:
    return next(_token_counter)


@dataclass(frozen=True)
class HopMessage:
    """The ``<hop>`` message of the election algorithm.

    Attributes
    ----------
    hop:
        The hop counter carried by the message (``>= 1``).
    token_id:
        Identity of the logical message across forwards (analysis only).
    knockout:
        Whether the message has turned an idle node passive at some point
        during its lifetime (analysis only).
    """

    hop: int
    token_id: int = field(default_factory=_next_token_id)
    knockout: bool = False

    def __post_init__(self) -> None:
        if self.hop < 1:
            raise ValueError(f"hop counter must be >= 1, got {self.hop}")

    def forwarded(self, new_hop: int, knocked_out_idle: bool) -> "HopMessage":
        """The message as re-sent by a forwarding node.

        ``new_hop`` is the forwarding node's ``d + 1``; ``knocked_out_idle``
        records whether the forwarding node was idle (and hence got knocked
        out by this message).
        """
        return HopMessage(
            hop=new_hop,
            token_id=self.token_id,
            knockout=self.knockout or knocked_out_idle,
        )

    def __repr__(self) -> str:
        flag = "*" if self.knockout else ""
        return f"<hop={self.hop}{flag}#{self.token_id}>"
