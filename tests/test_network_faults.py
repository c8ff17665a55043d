"""Tests for fault injection (message loss, crash-stop) and its interaction
with the election algorithm.

The headline demonstration mirrors the paper's modelling decision: raw message
loss (no retransmission) can deadlock the election, while the same
unreliability expressed as a retransmission *delay* -- the ABE way -- keeps
every run live.
"""

from __future__ import annotations

import pytest

from repro.algorithms.traversal import RingTraversalProgram
from repro.core.analysis import recommended_a0
from repro.core.runner import build_election_network, run_election, run_election_on_network
from repro.network.delays import ConstantDelay
from repro.network.faults import CrashStopFault, FaultInjector, MessageLossFault
from repro.network.network import Network, NetworkConfig
from repro.network.retransmission import GeometricRetransmissionDelay
from repro.network.topology import unidirectional_ring


def traversal_network(n=6, seed=0):
    config = NetworkConfig(
        topology=unidirectional_ring(n), delay_model=ConstantDelay(1.0), seed=seed
    )
    return Network(
        config, lambda uid: RingTraversalProgram(is_initiator=(uid == 0), target_laps=50)
    )


class TestMessageLossFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            MessageLossFault(loss_probability=1.0)
        with pytest.raises(ValueError):
            MessageLossFault(loss_probability=-0.1)

    def test_total_loss_probability_drops_messages(self):
        network = traversal_network(seed=3)
        injector = FaultInjector(network)
        affected = injector.apply_message_loss(MessageLossFault(loss_probability=0.9))
        assert affected == 6
        network.run(until=200.0, max_events=5000)
        assert injector.messages_dropped > 0
        assert network.metrics.count("messages_dropped") == injector.messages_dropped
        # Dropped messages were sent but never delivered.
        assert network.messages_delivered() < network.messages_sent()

    def test_zero_probability_drops_nothing(self):
        network = traversal_network(seed=4)
        injector = FaultInjector(network)
        injector.apply_message_loss(MessageLossFault(loss_probability=0.0))
        network.run(until=100.0, max_events=5000)
        assert injector.messages_dropped == 0
        # At most one message may still be in flight when the horizon cuts in.
        assert network.messages_delivered() >= network.messages_sent() - 1

    def test_channel_predicate_limits_scope(self):
        network = traversal_network(seed=5)
        injector = FaultInjector(network)
        affected = injector.apply_message_loss(
            MessageLossFault(
                loss_probability=0.5,
                channel_predicate=lambda channel: channel.source.uid == 0,
            )
        )
        assert affected == 1

    def test_drops_recorded_in_trace(self):
        network = traversal_network(seed=6)
        injector = FaultInjector(network)
        injector.apply_message_loss(MessageLossFault(loss_probability=0.95))
        network.run(until=50.0, max_events=2000)
        assert len(network.tracer.filter(category="drop")) == injector.messages_dropped


class TestCrashStopFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrashStopFault(node_uid=0, crash_time=-1.0)

    def test_crashed_node_stops_forwarding(self):
        network = traversal_network(seed=7)
        injector = FaultInjector(network)
        injector.apply_crash(CrashStopFault(node_uid=3, crash_time=2.5))
        network.run(until=100.0, max_events=5000)
        assert injector.nodes_crashed == [3]
        # The token dies at the crashed node, so far fewer than 50 laps finish.
        assert network.programs()[0].completed_laps < 50
        assert network.metrics.count("deliveries_to_crashed") >= 1

    def test_crash_of_unknown_node_rejected(self):
        network = traversal_network()
        injector = FaultInjector(network)
        with pytest.raises(ValueError):
            injector.apply_crash(CrashStopFault(node_uid=99, crash_time=1.0))

    def test_apply_batch_dispatches_by_type(self):
        network = traversal_network(seed=8)
        injector = FaultInjector(network)
        injector.apply(
            [
                MessageLossFault(loss_probability=0.1),
                CrashStopFault(node_uid=2, crash_time=5.0),
            ]
        )
        network.run(until=50.0, max_events=5000)
        assert injector.nodes_crashed == [2]

    def test_apply_rejects_unknown_fault_type(self):
        network = traversal_network()
        injector = FaultInjector(network)
        with pytest.raises(TypeError):
            injector.apply(["not-a-fault"])


class TestFaultIdempotency:
    """Re-applying the same fault must be a no-op, not a compounding wrap."""

    def test_double_apply_same_loss_fault_does_not_compound(self):
        # Historically each apply stacked another lossy_deliver wrapper, so
        # two applies of p=0.3 silently dropped at 1-(1-0.3)^2 = 0.51.  The
        # double-applied network must now behave exactly like a single apply.
        fault = MessageLossFault(loss_probability=0.3)
        single = traversal_network(seed=11)
        once = FaultInjector(single)
        assert once.apply_message_loss(fault) == 6
        single.run(until=100.0, max_events=5000)

        doubled = traversal_network(seed=11)
        twice = FaultInjector(doubled)
        assert twice.apply_message_loss(fault) == 6
        assert twice.apply_message_loss(fault) == 0  # second apply: no-op
        doubled.run(until=100.0, max_events=5000)

        assert twice.messages_dropped == once.messages_dropped
        assert doubled.messages_delivered() == single.messages_delivered()

    def test_equal_loss_faults_are_also_deduplicated(self):
        network = traversal_network(seed=11)
        injector = FaultInjector(network)
        assert injector.apply_message_loss(MessageLossFault(loss_probability=0.3)) == 6
        # A distinct but field-equal fault object describes the same fault.
        assert injector.apply_message_loss(MessageLossFault(loss_probability=0.3)) == 0
        # A genuinely different fault still applies.
        assert injector.apply_message_loss(MessageLossFault(loss_probability=0.1)) == 6

    def test_double_apply_crash_records_one_crash(self):
        network = traversal_network(seed=12)
        injector = FaultInjector(network)
        fault = CrashStopFault(node_uid=3, crash_time=2.5)
        injector.apply_crash(fault)
        injector.apply_crash(fault)
        injector.apply(
            [CrashStopFault(node_uid=3, crash_time=2.5)]
        )  # equal fault via the batch path: still a no-op
        network.run(until=50.0, max_events=5000)
        assert injector.nodes_crashed == [3]
        assert network.metrics.count("nodes_crashed") == 1


class TestCrashEdgeCases:
    """Regression tests for the crash-fault edge cases (already-crashed, t=0)."""

    def test_second_crash_of_same_node_is_noop(self):
        # Two distinct crash directives for one node: the second must not
        # re-record the crash or re-wrap delivery.
        network = traversal_network(seed=9)
        injector = FaultInjector(network)
        injector.apply_crash(CrashStopFault(node_uid=3, crash_time=2.0))
        injector.apply_crash(CrashStopFault(node_uid=3, crash_time=4.0))
        network.run(until=50.0, max_events=5000)
        assert injector.nodes_crashed == [3]
        assert network.metrics.count("nodes_crashed") == 1

    def test_crash_at_time_zero_sticks_for_ticking_programs(self):
        # A crash scheduled at t=0 sorts before Network.start()'s on_start
        # events; historically the halt inside it ran before the program had
        # armed anything, and the "crashed" node kept ticking.  The injector
        # requeues once within the same instant so the crash lands *after*
        # program start-up.
        network, _status = build_election_network(4, a0=0.5, seed=1)
        injector = FaultInjector(network)
        injector.apply_crash(CrashStopFault(node_uid=2, crash_time=0.0))
        network.run(until=30.0, max_events=5000)
        assert injector.nodes_crashed == [2]
        program = network.programs()[2]
        assert not program.ticking
        assert program.times_activated == 0  # a0=0.5: would activate at once

    def test_crash_at_time_zero_on_non_ticking_program_terminates(self):
        # Programs that never start ticks must not requeue forever: the
        # same-instant defer happens at most once.
        network = traversal_network(seed=10)
        injector = FaultInjector(network)
        injector.apply_crash(CrashStopFault(node_uid=0, crash_time=0.0))
        network.run(until=20.0, max_events=2000)
        assert injector.nodes_crashed == [0]
        assert network.metrics.count("nodes_crashed") == 1


class TestElectionUnderFaults:
    """Why the ABE model folds unreliability into the delay distribution."""

    def test_raw_message_loss_can_prevent_election(self):
        # With heavy raw loss and no retransmission some runs fail to elect a
        # leader within the budget -- the algorithm assumes reliable channels.
        failures = 0
        for seed in range(6):
            network, status = build_election_network(8, a0=0.05, seed=seed)
            injector = FaultInjector(network)
            injector.apply_message_loss(MessageLossFault(loss_probability=0.6))
            result = run_election_on_network(
                network, status, max_events=30_000, max_time=3_000.0
            )
            if not result.elected:
                failures += 1
        assert failures > 0

    def test_same_loss_rate_as_retransmission_delay_always_elects(self):
        # The ABE treatment of the very same lossy link: success probability
        # 0.4 per attempt becomes a delay distribution with mean 1/0.4, and
        # every run elects a leader.
        delay = GeometricRetransmissionDelay(success_probability=0.4, transmission_time=1.0)
        for seed in range(6):
            result = run_election(
                8,
                a0=recommended_a0(8),
                delay=delay,
                seed=seed,
                expected_delay_bound=delay.mean(),
            )
            assert result.elected
            assert result.leaders_elected == 1
