"""Unit tests for the Network builder and adversarial delay strategies."""

from __future__ import annotations

from typing import Any

import pytest

from repro.algorithms.traversal import RingTraversalProgram
from repro.network.adversary import (
    AdversarialDelay,
    MaxDelayAdversary,
    TargetedSlowdownAdversary,
)
from repro.network.delays import ConstantDelay, ExponentialDelay, UniformDelay
from repro.network.network import Network, NetworkConfig
from repro.network.node import NodeProgram
from repro.network.topology import unidirectional_ring


class SilentProgram(NodeProgram):
    """A program that does nothing (used to exercise pure wiring)."""


class TestNetworkConstruction:
    def test_nodes_and_channels_match_topology(self, small_ring_config):
        network = Network(small_ring_config, lambda uid: SilentProgram())
        assert network.n == 6
        assert len(network.nodes) == 6
        assert len(network.channels) == 6
        for node in network.nodes:
            assert node.out_degree == 1
            assert node.in_degree == 1

    def test_channel_between(self, small_ring_config):
        network = Network(small_ring_config, lambda uid: SilentProgram())
        assert network.channel_between(0, 1) is not None
        assert network.channel_between(0, 2) is None

    def test_per_channel_delay_factory(self):
        def factory(channel_id, source, destination):
            return ConstantDelay(1.0 + channel_id)

        config = NetworkConfig(
            topology=unidirectional_ring(3), delay_model=factory, seed=0
        )
        network = Network(config, lambda uid: SilentProgram())
        bounds = [channel.delay_model.bound() for channel in network.channels]
        assert bounds == [1.0, 2.0, 3.0]

    def test_invalid_delay_model_rejected(self):
        config = NetworkConfig(
            topology=unidirectional_ring(3), delay_model="not-a-delay", seed=0
        )
        with pytest.raises(TypeError):
            Network(config, lambda uid: SilentProgram())

    def test_start_is_idempotent(self, small_ring_config):
        started = []

        class StartCounting(NodeProgram):
            def on_start(self) -> None:
                started.append(self.node.uid)

        network = Network(small_ring_config, lambda uid: StartCounting())
        network.start()
        network.start()
        network.run()
        assert sorted(started) == list(range(6))

    def test_start_schedules_one_event_per_node_in_node_order(self, small_ring_config):
        started = []

        class StartRecording(NodeProgram):
            def on_start(self) -> None:
                started.append(self.node.uid)

        network = Network(small_ring_config, lambda uid: StartRecording())
        network.start()
        assert network.simulator.events_scheduled == 6
        assert network.simulator.pending == 6
        network.simulator.run()
        # All start events tie at time 0 and fire in node order.
        assert started == list(range(6))

    def test_run_returns_current_time_and_results(self, small_ring_config):
        network = Network(
            small_ring_config,
            lambda uid: RingTraversalProgram(is_initiator=(uid == 0), target_laps=2),
        )
        end = network.run(max_events=10_000)
        assert end == network.now
        assert network.results()[0] == 2
        assert network.messages_sent() == 12  # 2 laps x 6 hops

    def test_stop_when_predicate(self, small_ring_config):
        network = Network(
            small_ring_config,
            lambda uid: RingTraversalProgram(is_initiator=(uid == 0), target_laps=100),
        )
        network.stop_when(lambda: network.messages_sent() >= 9)
        network.run(max_events=100_000)
        assert 9 <= network.messages_sent() <= 10

    def test_node_rng_streams_differ(self, small_ring_config):
        network = Network(small_ring_config, lambda uid: SilentProgram())
        assert network.node_rng(0).random() != network.node_rng(1).random()

    def test_same_seed_reproduces_execution(self):
        def build(seed):
            config = NetworkConfig(
                topology=unidirectional_ring(5),
                delay_model=ExponentialDelay(mean=1.0),
                seed=seed,
            )
            network = Network(
                config,
                lambda uid: RingTraversalProgram(is_initiator=(uid == 0), target_laps=3),
            )
            network.run(max_events=10_000)
            return network.now

        assert build(7) == build(7)
        assert build(7) != build(8)


class TestAdversaries:
    def test_max_delay_adversary_always_charges_bound(self, rng):
        adversary = MaxDelayAdversary(UniformDelay(0.0, 3.0))
        for _ in range(10):
            assert adversary.delay_for(0, 1, "x", 0.0, rng) == 3.0
        assert adversary.bound() == 3.0
        assert adversary.mean() == 3.0
        assert adversary.is_bounded()
        assert adversary.has_finite_mean()

    def test_max_delay_adversary_requires_bounded_base(self):
        with pytest.raises(ValueError):
            MaxDelayAdversary(ExponentialDelay(1.0))

    def test_targeted_slowdown_hits_only_the_victim(self, rng):
        adversary = TargetedSlowdownAdversary(ConstantDelay(1.0), victim=3, slowdown=5.0)
        assert adversary.delay_for(3, 1, "x", 0.0, rng) == pytest.approx(5.0)
        assert adversary.delay_for(1, 3, "x", 0.0, rng) == pytest.approx(5.0)
        assert adversary.delay_for(1, 2, "x", 0.0, rng) == pytest.approx(1.0)
        assert adversary.mean() == pytest.approx(5.0)
        assert adversary.bound() == pytest.approx(5.0)

    def test_targeted_slowdown_unbounded_base_has_no_bound(self):
        adversary = TargetedSlowdownAdversary(ExponentialDelay(1.0), victim=0, slowdown=2.0)
        assert adversary.bound() is None
        assert adversary.mean() == pytest.approx(2.0)

    def test_slowdown_validation(self):
        with pytest.raises(ValueError):
            TargetedSlowdownAdversary(ConstantDelay(1.0), victim=0, slowdown=0.5)

    def test_adversary_drives_channel_delays(self):
        config = NetworkConfig(
            topology=unidirectional_ring(4),
            delay_model=MaxDelayAdversary(UniformDelay(0.0, 2.0)),
            seed=0,
        )
        network = Network(
            config, lambda uid: RingTraversalProgram(is_initiator=(uid == 0), target_laps=1)
        )
        network.run(max_events=1000)
        # Every hop took exactly the bound, so one lap takes 4 * 2.0.
        assert network.now == pytest.approx(8.0)

    def test_custom_adversary_subclass_is_accepted(self):
        class EveryOtherSlow(AdversarialDelay):
            def delay_for(self, source, destination, payload, send_time, rng):
                return 2.0 if source % 2 == 0 else 1.0

            def mean(self) -> float:
                return 2.0

            def bound(self):
                return 2.0

        config = NetworkConfig(
            topology=unidirectional_ring(4), delay_model=EveryOtherSlow(), seed=0
        )
        network = Network(
            config, lambda uid: RingTraversalProgram(is_initiator=(uid == 0), target_laps=1)
        )
        network.run(max_events=1000)
        assert network.now == pytest.approx(2.0 + 1.0 + 2.0 + 1.0)
