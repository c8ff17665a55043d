"""Activation-probability schedules.

At every local clock tick an *idle* node decides whether to become active.
The paper's algorithm uses the adaptive probability

    P(activate | d) = 1 - (1 - A0)^d

where ``d`` is the node's current hop-count knowledge (``d - 1`` of its
predecessors are known to be passive).  The intuition, quoted from Section 3:
"By taking ``1 - (1 - A0)^d`` as wake-up probability for nodes A, we achieve
that the overall wake-up probability for all nodes stays constant over time.
This ensures that the algorithm has linear time and message complexity."

:class:`ConstantActivation` (always ``A0``) is the naive alternative; the
ablation experiment A1 shows that it loses the constant-pressure property and
with it the linear complexity, which is why the adaptive rule matters.

Both election cores apply the rule once per *idle spell* rather than once
per tick: ``d`` -- and with it ``p`` -- changes only on a receipt, and a
receipt always ends the spell, so the wait in ticks is Geometric(p).
:func:`geometric_wait` draws it and :func:`grid_ticks` counts the ticks a
node has consumed, in closed form.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

__all__ = [
    "ActivationSchedule",
    "AdaptiveActivation",
    "ConstantActivation",
    "geometric_wait",
    "grid_ticks",
]


def geometric_wait(probability: float, uniform: float) -> Optional[int]:
    """Ticks until an idle node activates, K ~ Geometric(``probability``).

    The inverse CDF of the number of ``probability`` coin flips up to and
    including the first success, applied to one ``uniform`` in ``[0, 1)``.
    ``None`` means the node never activates (``probability <= 0``).  The
    caller draws ``uniform`` even then, so a stream's consumption does not
    depend on ``probability``.
    """
    if probability >= 1.0:
        return 1
    if probability <= 0.0:
        return None
    return 1 + int(math.log(1.0 - uniform) / math.log1p(-probability))


def grid_ticks(anchor: float, reading: float, period: float) -> int:
    """Ticks ``anchor + k * period`` (``k >= 1``) at or before ``reading``.

    A tick at ``reading`` itself counts: activations fire before
    same-instant deliveries, so by the time anything else happens at that
    instant the tick has been consumed.
    """
    count = int((reading - anchor) // period)
    # Floor division may round across a tick; settle on the exact grid.
    while anchor + (count + 1) * period <= reading:
        count += 1
    while count > 0 and anchor + count * period > reading:
        count -= 1
    return count


def _validate_base(a0: float) -> float:
    if not (0.0 < a0 < 1.0):
        raise ValueError(f"base activation parameter A0 must lie in (0, 1), got {a0}")
    return float(a0)


class ActivationSchedule(abc.ABC):
    """Maps the node's hop knowledge ``d`` to an activation probability.

    Purity contract: :meth:`probability` must be a pure function of ``d``
    (no internal state, no randomness).  The election hot loop relies on it
    -- :class:`~repro.core.election.AbeElectionProgram` caches the returned
    value per ``d`` and only re-queries the schedule when ``d`` changes, so a
    stateful schedule would silently be consulted less often than once per
    tick.
    """

    @abc.abstractmethod
    def probability(self, d: int) -> float:
        """Activation probability for a node with current knowledge ``d >= 1``."""

    def validate_d(self, d: int) -> None:
        """Common argument check shared by the concrete schedules."""
        if d < 1:
            raise ValueError(f"hop knowledge d must be >= 1, got {d}")


class AdaptiveActivation(ActivationSchedule):
    """The paper's schedule: ``P(activate) = 1 - (1 - A0)^d``.

    As nodes learn that more of their predecessors are passive (``d`` grows),
    they become more eager to activate, exactly compensating for the shrinking
    number of idle nodes and keeping the ring-wide wake-up pressure constant.
    """

    def __init__(self, a0: float) -> None:
        self.a0 = _validate_base(a0)
        # Hoisted complement: probability() is (rarely) called from the
        # election hot path when d changes, so the subtraction is done once.
        # Same float arithmetic, bit-identical results.
        self._decay = 1.0 - self.a0

    def probability(self, d: int) -> float:
        self.validate_d(d)
        return 1.0 - self._decay ** d

    def __repr__(self) -> str:
        return f"AdaptiveActivation(a0={self.a0})"


class ConstantActivation(ActivationSchedule):
    """Naive schedule: activate with fixed probability ``A0`` regardless of ``d``.

    Used only as the ablation baseline (experiment A1).  With this schedule
    the ring-wide wake-up pressure decays as nodes become passive, so the last
    surviving candidates dawdle and the expected running time degrades.
    """

    def __init__(self, a0: float) -> None:
        self.a0 = _validate_base(a0)

    def probability(self, d: int) -> float:
        self.validate_d(d)
        return self.a0

    def __repr__(self) -> str:
        return f"ConstantActivation(a0={self.a0})"
