"""Unit and integration tests for the ABE election algorithm (Section 3)."""

from __future__ import annotations

import pytest

from repro.core.activation import AdaptiveActivation
from repro.core.analysis import recommended_a0
from repro.core.election import AbeElectionProgram, ElectionStatus, NodeState
from repro.core.messages import HopMessage
from repro.core.runner import build_election_network, run_election, run_election_on_network
from repro.core.verification import ElectionInvariantError, verify_election
from repro.network.delays import ConstantDelay, ExponentialDelay
from repro.network.network import Network, NetworkConfig
from repro.network.topology import line_topology, unidirectional_ring


class TestStateMachineRules:
    """Direct tests of the per-node transition rules (no full simulation)."""

    def _bound_program(self, n=4, **kwargs):
        status = ElectionStatus()
        program = AbeElectionProgram(status, schedule=AdaptiveActivation(0.3), **kwargs)
        config = NetworkConfig(
            topology=unidirectional_ring(n), delay_model=ConstantDelay(1.0), seed=0
        )
        network = Network(config, lambda uid: AbeElectionProgram(ElectionStatus()))
        # Rebind our program onto node 0 so its sends go to a real channel.
        network.nodes[0].program = program
        program.bind(network.nodes[0])
        program.state = NodeState.IDLE
        program.d = 1
        return program, status, network

    def test_rule_i_idle_becomes_passive_and_forwards_d_plus_one(self):
        program, status, network = self._bound_program()
        program.d = 2
        program.on_receive(HopMessage(hop=1), port=0)
        assert program.state is NodeState.PASSIVE
        # d stays max(2, 1) = 2, so the forwarded hop is 3.
        sent = network.tracer.filter(category="send", subject=0)
        assert sent[-1].details["payload"].hop == 3
        assert status.knockouts == 1

    def test_receive_updates_d_to_max(self):
        program, _, _ = self._bound_program()
        program.state = NodeState.PASSIVE
        program.on_receive(HopMessage(hop=3), port=0)
        assert program.d == 3
        program.on_receive(HopMessage(hop=2), port=0)
        assert program.d == 3

    def test_rule_ii_passive_forwards(self):
        program, status, network = self._bound_program()
        program.state = NodeState.PASSIVE
        program.on_receive(HopMessage(hop=2), port=0)
        assert program.state is NodeState.PASSIVE
        sent = network.tracer.filter(category="send", subject=0)
        assert sent[-1].details["payload"].hop == 3
        # Forwarding at a passive node is not a knockout.
        assert status.knockouts == 0

    def test_rule_iii_active_purges_and_becomes_idle(self):
        program, _, network = self._bound_program()
        program.state = NodeState.ACTIVE
        before = network.messages_sent()
        program.on_receive(HopMessage(hop=2), port=0)
        assert program.state is NodeState.IDLE
        assert network.messages_sent() == before  # purged, nothing forwarded

    def test_rule_iii_active_becomes_leader_on_hop_n(self):
        program, status, _ = self._bound_program(n=4)
        program.state = NodeState.ACTIVE
        program.on_receive(HopMessage(hop=4), port=0)
        assert program.state is NodeState.LEADER
        assert program.is_leader
        assert status.leader_uid == 0
        assert status.leaders_elected == 1

    def test_leader_purges_residual_messages(self):
        program, _, network = self._bound_program(n=4)
        program.state = NodeState.ACTIVE
        program.on_receive(HopMessage(hop=4), port=0)
        before = network.messages_sent()
        program.on_receive(HopMessage(hop=2), port=0)
        assert network.messages_sent() == before
        assert program.state is NodeState.LEADER

    def test_non_hop_payload_rejected(self):
        program, _, _ = self._bound_program()
        with pytest.raises(TypeError):
            program.on_receive("garbage", port=0)

    def test_result_reports_state(self):
        program, _, _ = self._bound_program()
        assert program.result() is NodeState.IDLE

    def test_tick_period_validation(self):
        with pytest.raises(ValueError):
            AbeElectionProgram(ElectionStatus(), tick_period=0.0)


class TestRunnerEndToEnd:
    def test_small_ring_elects_exactly_one_leader(self):
        result = run_election(4, a0=0.2, seed=1)
        assert result.elected
        assert result.leaders_elected == 1
        assert 0 <= result.leader_uid < 4
        assert result.hop_overflows == 0
        assert result.messages_total >= 4  # at least one full traversal

    @pytest.mark.parametrize("seed", range(8))
    def test_many_seeds_all_elect_single_leader(self, seed):
        result = run_election(8, a0=recommended_a0(8), seed=seed)
        assert result.elected
        assert result.leaders_elected == 1

    def test_reproducible_given_seed(self):
        a = run_election(8, a0=0.05, seed=13)
        b = run_election(8, a0=0.05, seed=13)
        assert (a.leader_uid, a.messages_total, a.election_time) == (
            b.leader_uid,
            b.messages_total,
            b.election_time,
        )

    def test_different_seeds_differ(self):
        outcomes = {
            run_election(8, a0=0.05, seed=seed).election_time for seed in range(6)
        }
        assert len(outcomes) > 1

    def test_verification_passes_on_real_runs(self):
        network, status = build_election_network(10, a0=recommended_a0(10), seed=5)
        result = run_election_on_network(network, status)
        report = verify_election(network, result)
        assert report.ok
        assert report.checks_performed >= 8

    def test_works_with_fifo_channels_too(self):
        result = run_election(6, a0=0.1, seed=3, fifo=True)
        assert result.elected

    def test_works_with_processing_delay(self):
        result = run_election(
            6, a0=0.1, seed=3, processing_delay=ConstantDelay(0.05)
        )
        assert result.elected

    def test_works_under_clock_drift(self):
        result = run_election(6, a0=0.1, seed=3, clock_bounds=(0.5, 2.0))
        assert result.elected
        assert result.leaders_elected == 1

    def test_ring_size_validation(self):
        with pytest.raises(ValueError):
            run_election(1)

    def test_model_validation_rejects_wrong_delta(self):
        from repro.models.base import ModelValidationError

        with pytest.raises(ModelValidationError):
            run_election(
                4, a0=0.2, delay=ExponentialDelay(2.0), expected_delay_bound=1.0, seed=0
            )

    def test_model_validation_can_be_disabled(self):
        result = run_election(
            4,
            a0=0.2,
            delay=ExponentialDelay(2.0),
            expected_delay_bound=1.0,
            validate_model=False,
            seed=0,
        )
        assert result.elected

    def test_requires_ring_topology(self):
        status = ElectionStatus()
        config = NetworkConfig(
            topology=line_topology(4), delay_model=ConstantDelay(1.0), seed=0
        )
        network = Network(config, lambda uid: AbeElectionProgram(status))
        with pytest.raises(RuntimeError, match="unidirectional rings"):
            network.run(max_events=10)

    def test_requires_known_ring_size(self):
        status = ElectionStatus()
        config = NetworkConfig(
            topology=unidirectional_ring(4),
            delay_model=ConstantDelay(1.0),
            seed=0,
            size_known=False,
        )
        network = Network(config, lambda uid: AbeElectionProgram(status))
        with pytest.raises(RuntimeError, match="size n"):
            network.run(max_events=10)

    def test_result_convenience_properties(self):
        result = run_election(8, a0=0.05, seed=2)
        assert result.messages_per_node == pytest.approx(result.messages_total / 8)
        assert result.time_per_node == pytest.approx(result.election_time / 8)

    def test_max_events_budget_reports_non_termination(self):
        # An absurdly small budget: the run stops before anyone wins.
        result = run_election(16, a0=1e-6, seed=0, max_events=10)
        assert not result.elected
        assert result.leader_uid is None


class TestGeometricActivation:
    """One activation timer per idle spell instead of one event per tick."""

    @pytest.mark.parametrize("n", [64, 256])
    def test_events_are_start_ups_activations_and_deliveries(self, n):
        # Unit clocks: no wake-ups and no tick events, so an election costs
        # O(messages) events; its ticks are counted, not simulated.
        for seed in range(3):
            result = run_election(n, delay=ExponentialDelay(1.0), seed=seed)
            assert result.elected
            assert result.events_processed <= n + result.activations + result.messages_total
            assert result.ticks > result.events_processed

    def _program(self, probability):
        network, _status = build_election_network(4, a0=0.3, seed=0)
        program = network.programs()[0]
        program._probability = probability
        return program

    def test_certain_activation_waits_one_tick(self):
        program = self._program(1.0)
        assert {program._draw_wait() for _ in range(20)} == {1}

    def test_zero_probability_never_activates(self):
        assert self._program(0.0)._draw_wait() is None

    def test_wait_is_geometric(self):
        # Geometric(0.2) on {1, 2, ...}: mean 5, P(K = 1) = 0.2.  Bounds are
        # about five standard errors over 20,000 draws.
        program = self._program(0.2)
        waits = [program._draw_wait() for _ in range(20_000)]
        assert sum(waits) / len(waits) == pytest.approx(5.0, abs=0.15)
        assert waits.count(1) / len(waits) == pytest.approx(0.2, abs=0.015)

    def test_tick_at_the_instant_has_fired(self):
        program = self._program(0.3)
        program._anchor = 0.7
        assert program._ticks_elapsed(0.7) == 0
        assert program._ticks_elapsed(0.7 + 3 * 1.0) == 3
        assert program._ticks_elapsed(3.699) == 2

    def test_activation_fires_before_a_same_instant_delivery(self):
        # n = 2, unit delays: node 0 activates at tick 1, its token reaches
        # node 1 at t = 2, exactly when node 1's tick 2 activates it.  Ticks
        # first: node 1 is active when the token lands and falls back to
        # idle.  Deliveries first would have knocked it out (passive).
        waits = {0: [1, 100], 1: [2, 100]}

        class Scripted(AbeElectionProgram):
            def _draw_wait(self):
                return waits[self.node.uid].pop(0)

        status = ElectionStatus()
        config = NetworkConfig(
            topology=unidirectional_ring(2), delay_model=ConstantDelay(1.0), seed=0
        )
        network = Network(config, lambda uid: Scripted(status))
        network.run(until=2.5)
        node0, node1 = network.programs()
        assert status.activations == 2
        assert node1.state is NodeState.IDLE and node1.times_knocked_out == 0
        assert node0.state is NodeState.ACTIVE

    def test_activations_land_on_the_local_tick_grid(self):
        # A rate-2 clock (not the identity fast path) ticks every 0.5 real
        # units: every activation lands exactly on that grid.
        network, status = build_election_network(
            6, a0=0.3, seed=2, clock_bounds=(2.0, 2.0), enable_trace=True
        )
        run_election_on_network(network, status)
        activations = [
            event.time
            for event in network.tracer.filter(category="state")
            if event.details.get("state") == "active"
        ]
        assert len(activations) == status.activations > 0
        assert all((2.0 * time).is_integer() for time in activations)

    def test_knock_back_keeps_the_grid_and_rearms(self):
        network, _status = build_election_network(4, a0=0.3, seed=0)
        network.run(until=0.0)  # every node started and armed at t = 0
        program = network.programs()[0]
        first = program._timer
        program.state = NodeState.ACTIVE
        program.on_receive(HopMessage(hop=2), port=0)  # not n: knock-back
        assert program.state is NodeState.IDLE
        assert program._anchor == 0.0  # the start-up grid, not re-anchored
        assert first.cancelled and not program._timer.cancelled

    def test_crash_cancels_the_pending_activation(self):
        from repro.network.faults import CrashStopFault, FaultInjector

        network, status = build_election_network(4, a0=0.01, seed=1)
        FaultInjector(network).apply_crash(CrashStopFault(node_uid=1, crash_time=2.5))
        network.run(until=2.6)
        program = network.programs()[1]
        assert not program.ticking and program._timer is None
        assert program.ticks == 2  # ticks 1 and 2, none after the crash
        network.run(until=50.0)
        assert program.ticks == 2 and program.times_activated == 0

    def test_knocked_out_node_cancels_its_activation(self):
        network, status = build_election_network(8, a0=0.05, seed=4)
        run_election_on_network(network, status)
        for program in network.programs():
            if program.state is NodeState.PASSIVE:
                assert not program.ticking and program._timer is None

    def test_queue_drained_undecided_returns_or_raises(self):
        # Heavy raw loss drops every token a crowning needs: the active nodes
        # wait for messages that never come, nothing is pending, and the run
        # is stuck for good -- elected=False, or SimulationDiverged on request.
        from repro.network.faults import FaultInjector, MessageLossFault
        from repro.sim.engine import SimulationDiverged

        def lossy(on_budget):
            network, status = build_election_network(6, a0=0.3, seed=3)
            FaultInjector(network).apply_message_loss(MessageLossFault(0.5))
            return network, run_election_on_network(network, status, on_budget=on_budget)

        network, result = lossy("stop")
        assert not result.elected and network.simulator.pending == 0
        with pytest.raises(SimulationDiverged):
            lossy("raise")


class TestA0Default:
    """``a0=None`` means ``recommended_a0(n)`` on every election entry point."""

    def test_run_election_object_and_vector(self):
        for core in ("object", "vector"):
            assert run_election(8, seed=1, core=core).a0 == recommended_a0(8)

    def test_build_functions_use_the_recommended_schedule(self):
        from repro.core.churn_election import build_churn_election_network
        from repro.network.churn import FaultScript

        network, _status = build_election_network(8, seed=1)
        churn_network = build_churn_election_network(8, script=FaultScript(), seed=1)[0]
        for built in (network, churn_network):
            assert built.programs()[0].schedule.a0 == recommended_a0(8)

    def test_churn_and_vector_runners(self):
        from repro.core.churn_election import run_churn_election
        from repro.core.vector_core import VectorRingElection
        from repro.network.churn import FaultScript

        assert run_churn_election(8, script=FaultScript(), seed=1).a0 == recommended_a0(8)
        assert VectorRingElection(8).a0 == recommended_a0(8)

    def test_prebuilt_network_reports_its_own_a0(self):
        network, status = build_election_network(8, a0=0.05, seed=1)
        assert run_election_on_network(network, status).a0 == 0.05


class TestVerificationChecker:
    def test_detects_fabricated_second_leader(self):
        network, status = build_election_network(6, a0=0.1, seed=4)
        result = run_election_on_network(network, status)
        # Corrupt the final state: promote another node to leader.
        for program in network.programs():
            if program.state is not NodeState.LEADER:
                program.state = NodeState.LEADER
                break
        with pytest.raises(ElectionInvariantError):
            verify_election(network, result)

    def test_detects_missing_leader_when_required(self):
        network, status = build_election_network(6, a0=0.1, seed=4)
        # Never run the network: nobody is leader.
        report = verify_election(network, None, require_elected=True, strict=False)
        assert not report.ok

    def test_missing_leader_tolerated_when_not_required(self):
        network, status = build_election_network(6, a0=0.1, seed=4)
        report = verify_election(network, None, require_elected=False, strict=False)
        assert report.ok

    def test_wrong_program_type_is_flagged(self):
        from repro.algorithms.traversal import RingTraversalProgram

        config = NetworkConfig(
            topology=unidirectional_ring(4), delay_model=ConstantDelay(1.0), seed=0
        )
        network = Network(config, lambda uid: RingTraversalProgram(is_initiator=(uid == 0)))
        report = verify_election(network, None, strict=False)
        assert not report.ok
