"""Cross-module integration tests.

These exercise whole pipelines rather than single modules: election over the
three motivating delay sources of Section 1, election with every moving part
enabled at once (drift + processing delay + FIFO + retransmission), the
synchronizer stack on top of the election's own substrate, and determinism of
complete experiment runs.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import recommended_a0
from repro.core.runner import build_election_network, run_election, run_election_on_network
from repro.core.verification import verify_election
from repro.experiments import e1_message_complexity
from repro.network.delays import ConstantDelay, ExponentialDelay
from repro.network.queueing import MM1SojournDelay
from repro.network.retransmission import GeometricRetransmissionDelay
from repro.network.routing import DynamicRoutingDelay
from repro.network.adversary import TargetedSlowdownAdversary
from repro.sim.clock import RandomWalkDrift


class TestElectionOverMotivatingDelaySources:
    """Section 1's three unbounded-delay sources, end to end."""

    @pytest.mark.parametrize(
        "delay",
        [
            GeometricRetransmissionDelay(success_probability=0.4, transmission_time=0.4),
            MM1SojournDelay(arrival_rate=1.0, service_rate=2.0),
            DynamicRoutingDelay(base_hops=2, detour_probability=0.25, per_hop_mean=0.4),
        ],
        ids=["retransmission", "queueing", "routing"],
    )
    def test_election_succeeds(self, delay):
        result = run_election(
            12,
            a0=recommended_a0(12),
            delay=delay,
            seed=5,
            expected_delay_bound=delay.mean(),
        )
        assert result.elected
        assert result.leaders_elected == 1


class TestKitchenSinkConfiguration:
    def test_everything_enabled_at_once(self):
        network, status = build_election_network(
            10,
            a0=recommended_a0(10),
            delay=GeometricRetransmissionDelay(0.5, transmission_time=0.5),
            seed=9,
            clock_bounds=(0.5, 2.0),
            clock_drift_factory=lambda uid: RandomWalkDrift(initial_rate=1.0, step=0.1),
            processing_delay=ConstantDelay(0.02),
            fifo=True,
            enable_trace=True,
        )
        result = run_election_on_network(network, status)
        assert result.elected
        report = verify_election(network, result)
        assert report.ok
        # The trace recorded the decide event of the leader.
        decide_events = network.tracer.filter(category="decide")
        assert len(decide_events) == 1
        assert decide_events[0].subject == result.leader_uid

    def test_adversarial_slow_link_does_not_break_safety(self):
        adversary = TargetedSlowdownAdversary(ExponentialDelay(1.0), victim=2, slowdown=8.0)
        result = run_election(
            10,
            a0=recommended_a0(10),
            delay=adversary,
            seed=4,
            expected_delay_bound=adversary.mean(),
        )
        assert result.elected
        assert result.leaders_elected == 1


class TestScalingShape:
    def test_experiment_results_are_deterministic(self):
        a = e1_message_complexity.run(sizes=(8, 16), trials=4, base_seed=123)
        b = e1_message_complexity.run(sizes=(8, 16), trials=4, base_seed=123)
        assert a.table().rows == b.table().rows

    def test_experiment_results_depend_on_seed(self):
        a = e1_message_complexity.run(sizes=(8, 16), trials=4, base_seed=123)
        b = e1_message_complexity.run(sizes=(8, 16), trials=4, base_seed=124)
        assert a.table().rows != b.table().rows
