"""Dynamic-routing delays (Section 1, case ii).

The second motivating example of an unbounded delay in the paper is "dynamic
message routing": a message between two fixed endpoints may take different
paths on different attempts (load balancing, route flapping, mobile ad-hoc
re-routing), so the hop count -- and therefore the delay -- varies per
message and may occasionally be very large, while its expectation stays small.

:class:`DynamicRoutingDelay` models the end-to-end delay of such a message as
the sum of per-hop delays over a randomly chosen path length.  Path lengths
are drawn from a (possibly unbounded) distribution over hop counts; the
default is a geometric "detour" model: the route takes the shortest path with
probability ``1 - detour_probability`` and otherwise accumulates extra hops
geometrically, which mimics route flapping in ad-hoc networks.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.network.delays import DelayDistribution, ExponentialDelay

__all__ = ["DynamicRoutingDelay"]


class DynamicRoutingDelay(DelayDistribution):
    """End-to-end delay over a dynamically routed multi-hop path.

    Parameters
    ----------
    base_hops:
        Length of the shortest path between the endpoints (>= 1).
    detour_probability:
        After the shortest path, each additional hop is appended with this
        probability (geometric number of extra hops).  ``0`` reduces the model
        to a fixed-length path.
    per_hop_delay:
        Delay distribution of a single hop; defaults to an exponential with
        mean ``per_hop_mean``.
    per_hop_mean:
        Mean of the default per-hop exponential (ignored when
        ``per_hop_delay`` is given).
    max_extra_hops:
        Safety cap on the number of extra hops (documented approximation; the
        cap is chosen high enough that its truncation error is negligible at
        the detour probabilities used in the experiments).
    """

    def __init__(
        self,
        base_hops: int = 2,
        detour_probability: float = 0.3,
        per_hop_delay: Optional[DelayDistribution] = None,
        per_hop_mean: float = 0.5,
        max_extra_hops: int = 10_000,
    ) -> None:
        if base_hops < 1:
            raise ValueError("base_hops must be >= 1")
        if not (0.0 <= detour_probability < 1.0):
            raise ValueError("detour_probability must be in [0, 1)")
        if per_hop_mean <= 0:
            raise ValueError("per_hop_mean must be positive")
        if max_extra_hops < 0:
            raise ValueError("max_extra_hops must be non-negative")
        self.base_hops = int(base_hops)
        self.detour_probability = float(detour_probability)
        self.per_hop_delay = (
            per_hop_delay if per_hop_delay is not None else ExponentialDelay(per_hop_mean)
        )
        self.max_extra_hops = int(max_extra_hops)

    def sample_hops(self, rng: random.Random) -> int:
        """Draw the number of hops for one message."""
        hops = self.base_hops
        extra = 0
        while (
            self.detour_probability > 0.0
            and extra < self.max_extra_hops
            and rng.random() < self.detour_probability
        ):
            extra += 1
        return hops + extra

    def sample(self, rng: random.Random) -> float:
        hops = self.sample_hops(rng)
        return sum(self.per_hop_delay.sample(rng) for _ in range(hops))

    def supports_vectorized(self) -> bool:
        return self.per_hop_delay.supports_vectorized()

    def sample_array(self, gen, count: int):
        import numpy as np

        # Multi-pass draw (hop counts, then all per-hop draws): the
        # vectorized stream is deterministic per seed but depends on how the
        # caller chunks its requests.
        hops = np.full(count, self.base_hops, dtype=np.int64)
        if self.detour_probability > 0.0:
            # Extra hops are the Bernoulli(q) successes before the first
            # failure: Geometric(1 - q) - 1, capped like the scalar loop.
            extras = gen.geometric(1.0 - self.detour_probability, count) - 1
            hops += np.minimum(extras, self.max_extra_hops)
        draws = np.asarray(
            self.per_hop_delay.sample_array(gen, int(hops.sum())), dtype=float
        )
        offsets = np.zeros(count, dtype=np.int64)
        np.cumsum(hops[:-1], out=offsets[1:])
        return np.add.reduceat(draws, offsets)

    def expected_hops(self) -> float:
        """Expected path length: ``base_hops + q / (1 - q)`` for detour prob q."""
        q = self.detour_probability
        return self.base_hops + (q / (1.0 - q) if q > 0 else 0.0)

    def mean(self) -> float:
        return self.expected_hops() * self.per_hop_delay.mean()

    def __repr__(self) -> str:
        return (
            f"DynamicRoutingDelay(base_hops={self.base_hops}, "
            f"detour_probability={self.detour_probability}, "
            f"per_hop={self.per_hop_delay!r})"
        )
