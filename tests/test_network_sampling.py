"""Tests for delay sampling on both election cores.

The columnar election core draws its delays through
``DelayDistribution.sample_array``; the object core's channels draw one
delay per message through ``sample`` on the channel's own named stream.
Both streams are pure functions of the seed.
"""

from __future__ import annotations

import random

import pytest

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
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.queueing import MM1SojournDelay
from repro.network.retransmission import GeometricRetransmissionDelay
from repro.network.routing import DynamicRoutingDelay
from repro.network.topology import unidirectional_ring
from repro.sim.rng import RandomSource

VECTORIZED_DISTRIBUTIONS = [
    ConstantDelay(1.5),
    UniformDelay(0.5, 2.5),
    ExponentialDelay(mean=1.2),
    ShiftedExponentialDelay(offset=0.4, exp_mean=0.8),
    ErlangDelay(shape=4, stage_mean=0.3),
    ParetoDelay(alpha=3.0, scale=0.5),
    LogNormalDelay(mean=1.0, sigma=0.8),
    WeibullDelay(shape=1.5, scale=1.0),
    # Closed the exact-mode gap: these used to loop scalar draws per block.
    HyperExponentialDelay([0.7, 0.3], [0.5, 2.0]),
    MixtureDelay([(0.6, ExponentialDelay(mean=0.8)), (0.4, UniformDelay(0.5, 1.5))]),
    EmpiricalDelay([0.2, 0.7, 1.3, 2.9]),
    MM1SojournDelay(arrival_rate=1.0, service_rate=2.0),
    GeometricRetransmissionDelay(0.4, transmission_time=0.5),
    DynamicRoutingDelay(base_hops=2, detour_probability=0.3, per_hop_mean=0.5),
]


class _ScalarOnlyDelay(DelayDistribution):
    """A distribution that deliberately has no vectorized sampler."""

    def sample(self, rng: random.Random) -> float:
        return rng.random()

    def mean(self) -> float:
        return 0.5


class TestSampleArray:
    @pytest.mark.parametrize("dist", VECTORIZED_DISTRIBUTIONS, ids=repr)
    def test_sample_array_statistics(self, dist):
        import numpy as np

        gen = np.random.default_rng(7)
        values = dist.sample_array(gen, 20_000)
        assert len(values) == 20_000
        assert float(values.min()) >= 0.0
        assert float(values.mean()) == pytest.approx(dist.mean(), rel=0.15)

    @pytest.mark.parametrize("dist", VECTORIZED_DISTRIBUTIONS, ids=repr)
    def test_sample_array_is_a_pure_function_of_the_seed(self, dist):
        """The vector core's determinism rests on this: two generators in
        equal states draw bit-identical arrays, for every distribution."""
        import numpy as np

        assert dist.supports_vectorized()
        first = dist.sample_array(np.random.default_rng(13), 40)
        second = dist.sample_array(np.random.default_rng(13), 40)
        assert first.tolist() == second.tolist()
        assert float(first.min()) >= 0.0

    @pytest.mark.parametrize(
        "dist",
        [
            # Single-pass draws: how the caller chunks its requests is
            # invisible.  The composite distributions (mixture, truncation,
            # routing) draw in several passes and are documented as
            # chunking-sensitive, so they are deliberately absent here.
            ConstantDelay(1.5),
            UniformDelay(0.5, 2.5),
            ExponentialDelay(mean=1.2),
            HyperExponentialDelay([0.7, 0.3], [0.5, 2.0]),
            EmpiricalDelay([0.2, 0.7, 1.3, 2.9]),
            MM1SojournDelay(arrival_rate=1.0, service_rate=2.0),
            GeometricRetransmissionDelay(0.4, transmission_time=0.5),
        ],
        ids=repr,
    )
    def test_request_chunking_invisible_for_single_pass_distributions(self, dist):
        import numpy as np

        whole = dist.sample_array(np.random.default_rng(13), 40)
        gen = np.random.default_rng(13)
        chunked = np.concatenate([dist.sample_array(gen, 5) for _ in range(8)])
        assert whole.tolist() == chunked.tolist()

    def test_unsupported_distribution_has_no_vectorized_sampler(self):
        dist = _ScalarOnlyDelay()
        assert not dist.supports_vectorized()
        with pytest.raises(NotImplementedError):
            dist.sample_array(None, 8)

    def test_vectorized_support_is_composition_aware(self):
        """Wrappers inherit vectorization from what they wrap."""
        assert TruncatedDelay(ExponentialDelay(1.0), cap=3.0).supports_vectorized()
        assert not TruncatedDelay(_ScalarOnlyDelay(), cap=3.0).supports_vectorized()
        assert not MixtureDelay(
            [(0.5, ExponentialDelay(1.0)), (0.5, _ScalarOnlyDelay())]
        ).supports_vectorized()
        assert not DynamicRoutingDelay(
            base_hops=2, per_hop_delay=_ScalarOnlyDelay()
        ).supports_vectorized()

    def test_truncated_sample_array_respects_cap(self):
        import numpy as np

        dist = TruncatedDelay(ExponentialDelay(mean=2.0), cap=1.5)
        values = dist.sample_array(np.random.default_rng(11), 10_000)
        assert float(values.max()) <= 1.5
        assert float(values.min()) >= 0.0
        # The conditional mean is below the reported (upper-bound) mean.
        assert float(values.mean()) < dist.mean()

    def test_routing_sample_array_matches_hop_structure(self):
        import numpy as np

        dist = DynamicRoutingDelay(
            base_hops=3, detour_probability=0.0, per_hop_delay=ConstantDelay(0.5)
        )
        values = dist.sample_array(np.random.default_rng(1), 256)
        assert np.allclose(values, 1.5)


class _Quiet(NodeProgram):
    def on_start(self):
        pass

    def on_message(self, payload, port):
        pass


def _quiet_ring(dist: DelayDistribution, seed: int = 4) -> Network:
    config = NetworkConfig(
        topology=unidirectional_ring(4),
        delay_model=dist,
        seed=seed,
        enable_trace=False,
    )
    return Network(config, lambda uid: _Quiet())


class TestChannelDelayStream:
    """The object core's one delay stream: every message's delay is one
    ``sample(rng)`` call on its channel's ``channel/<id>`` stream."""

    @pytest.mark.parametrize("dist", VECTORIZED_DISTRIBUTIONS, ids=repr)
    def test_scalar_sample_statistics(self, dist):
        rng = random.Random(7)
        values = [dist.sample(rng) for _ in range(20_000)]
        assert min(values) >= 0.0
        assert sum(values) / len(values) == pytest.approx(dist.mean(), rel=0.15)

    @pytest.mark.parametrize("dist", VECTORIZED_DISTRIBUTIONS, ids=repr)
    def test_channel_delays_match_repeated_sample(self, dist):
        channel = _quiet_ring(dist).channels[0]
        envelopes = [channel.transmit(index) for index in range(64)]
        reference = RandomSource(4).stream("channel/0")
        assert [e.delay for e in envelopes] == [dist.sample(reference) for _ in range(64)]
        # Non-FIFO channels deliver exactly the drawn delay after the send.
        assert all(e.deliver_time == e.send_time + e.delay for e in envelopes)

    def test_channels_draw_from_independent_streams(self):
        """How much one channel draws never shifts another channel's stream."""
        dist = ExponentialDelay(mean=1.0)
        network = _quiet_ring(dist)
        for index in range(10):
            network.channels[0].transmit(index)
        drawn = [network.channels[1].transmit(index).delay for index in range(8)]
        reference = RandomSource(4).stream("channel/1")
        assert drawn == [dist.sample(reference) for _ in range(8)]

    @pytest.mark.parametrize("dist", VECTORIZED_DISTRIBUTIONS, ids=repr)
    def test_election_is_deterministic_per_seed_for_every_distribution(self, dist):
        from repro.core.runner import run_election

        first = run_election(8, a0=0.3, delay=dist, seed=11)
        assert first == run_election(8, a0=0.3, delay=dist, seed=11)
        assert first.elected
        assert first.leaders_elected == 1
        assert first.knockout_messages == 8 - 1
