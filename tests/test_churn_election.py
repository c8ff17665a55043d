"""Tests for the churn-aware election (repro.core.churn_election).

The headline scenario is the acceptance criterion of the dynamic-network
layer: crash the elected leader, let it recover, and verify the ring detects
the loss, re-elects, and reports the stabilization metrics -- bit-identically
across repeated runs.
"""

from __future__ import annotations

import pytest

from repro.core.churn_election import (
    ChurnAwareElectionProgram,
    ChurnElectionResult,
    ChurnElectionStatus,
    build_churn_election_network,
    run_churn_election,
)
from repro.core.election import NodeState
from repro.models.abe import ABEModel
from repro.network.churn import (
    CrashEvent,
    FaultScript,
    LinkDownEvent,
    PeriodicChurn,
    RecoverEvent,
)


LEADER_CRASH = FaultScript(events=(CrashEvent(node="leader", time=40.0, downtime=40.0),))


class TestChurnTimeouts:
    def test_default_model_values(self):
        # per-hop bound (delta + gamma) / s_low = 1 on the unit model:
        # heartbeat interval 2n, liveness timeout 6n*per_hop + interval.
        interval, timeout = ABEModel(expected_delay_bound=1.0).churn_timeouts(8)
        assert interval == pytest.approx(16.0)
        assert timeout == pytest.approx(64.0)

    def test_validation(self):
        model = ABEModel(expected_delay_bound=1.0)
        with pytest.raises(ValueError):
            model.churn_timeouts(1)
        with pytest.raises(ValueError):
            model.churn_timeouts(8, interval_factor=0.0)
        with pytest.raises(ValueError):
            model.churn_timeouts(8, timeout_factor=-1.0)

    def test_program_rejects_degenerate_timeouts(self):
        with pytest.raises(ValueError):
            ChurnAwareElectionProgram(
                ChurnElectionStatus(), heartbeat_interval=0.0, leader_timeout=10.0
            )
        with pytest.raises(ValueError):
            # Timeout must exceed the heartbeat interval or every leader is
            # immediately suspected.
            ChurnAwareElectionProgram(
                ChurnElectionStatus(), heartbeat_interval=10.0, leader_timeout=5.0
            )


class TestLeaderCrashRecover:
    def test_leader_crash_recover_restabilizes(self):
        result = run_churn_election(8, a0=0.3, script=LEADER_CRASH, seed=3)
        assert isinstance(result, ChurnElectionResult)
        assert result.elected
        assert result.stabilized
        assert result.crashes == 1
        assert result.recoveries == 1
        assert result.disruptions == 1
        assert result.re_elections == 1
        assert result.leader_downtime > 0.0
        assert result.time_to_restabilize > 0.0
        assert result.max_time_to_restabilize >= result.time_to_restabilize
        assert result.messages_per_re_election > 0.0
        assert result.heartbeats > 0
        # The ring is partitioned while the leader is down, so the re-crown
        # can only happen after the recovery at t = 80.
        assert result.election_time >= 80.0
        assert result.first_election_time < 40.0

    def test_runs_are_bit_identical(self):
        a = run_churn_election(8, a0=0.3, script=LEADER_CRASH, seed=3)
        b = run_churn_election(8, a0=0.3, script=LEADER_CRASH, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_churn_election(8, a0=0.3, script=LEADER_CRASH, seed=3)
        b = run_churn_election(8, a0=0.3, script=LEADER_CRASH, seed=4)
        assert a != b

    def test_recovered_node_rejoins_as_candidate(self):
        network, status, injector, monitor = build_churn_election_network(
            6, a0=0.3, script=LEADER_CRASH, seed=5, enable_trace=True
        )
        network.stop_when(lambda: injector.quiescent and status.live_leaders == 1)
        network.run(until=5_000.0, max_events=200_000)
        rejoins = network.tracer.filter(category="rejoin")
        assert len(rejoins) == 1
        # The rejoining node is the crashed ex-leader, back as a non-leader.
        (rejoin,) = rejoins
        program = network.programs()[rejoin.subject]
        assert not program.crashed
        assert status.live_leaders == 1

    def test_recovery_anchors_a_fresh_tick_grid(self):
        # A crash stops the node's ticks; the recovery restarts them on a grid
        # anchored at the recovery instant, with one activation armed.
        script = FaultScript(events=(CrashEvent(node=2, time=1.5, downtime=2.25),))
        network, status, injector, monitor = build_churn_election_network(
            6, a0=0.3, script=script, seed=5
        )
        program = network.programs()[2]
        network.run(until=2.0)
        assert program.crashed and not program.ticking
        crashed_ticks = program.ticks
        network.run(until=3.75)
        assert program._anchor == 3.75 and program.ticks == crashed_ticks
        assert program._timer is not None and not program._timer.cancelled

    def test_idle_node_redraws_when_an_epoch_resets_d(self):
        # Adopting a higher epoch resets d = 1, which changes an idle node's
        # activation probability: its spell is redrawn at the new value.
        network, status, injector, monitor = build_churn_election_network(
            6, a0=0.3, script=FaultScript(), seed=5
        )
        network.run(until=0.0)
        program = network.programs()[0]
        program.d = 4
        program._probability = program.schedule.probability(4)
        before = program._timer
        program._adopt_epoch(1)
        assert program.state is NodeState.IDLE and program.d == 1
        assert before.cancelled and program._timer is not before
        assert program._probability == program.schedule.probability(1)

    def test_empty_script_matches_plain_election_semantics(self):
        result = run_churn_election(8, a0=0.3, script=FaultScript(), seed=1)
        assert result.elected
        assert result.stabilized
        assert result.crashes == 0
        assert result.re_elections == 0
        assert result.leader_downtime == 0.0
        # A liveness timer may expire before the first crowning (about one
        # fault-free run in six at n = 8, docs/ROBUSTNESS.md); only such a
        # timeout can open an epoch, so epoch 0 holds exactly when none did.
        assert result.final_epoch <= result.suspicions
        if result.suspicions == 0:
            assert result.final_epoch == 0


class TestOtherDisruptions:
    def test_non_leader_crash_needs_no_re_election(self):
        # Crash a fixed node very early -- before any crowning it cannot be
        # the leader, so no leader-loss episode opens; the election completes
        # after the recovery reconnects the ring.
        script = FaultScript(
            events=(CrashEvent(node=2, time=1.0, downtime=30.0),)
        )
        result = run_churn_election(8, a0=0.3, script=script, seed=7)
        assert result.elected
        assert result.stabilized
        assert result.crashes == 1
        assert result.recoveries == 1

    def test_link_outage_only(self):
        script = FaultScript(
            events=(LinkDownEvent(channel=3, time=5.0, duration=20.0),)
        )
        result = run_churn_election(8, a0=0.3, script=script, seed=9)
        assert result.elected
        assert result.stabilized
        assert result.link_outages == 1
        assert result.crashes == 0

    def test_periodic_leader_churn(self):
        script = FaultScript(
            events=(
                PeriodicChurn(
                    interval=60.0, count=2, downtime=25.0, start=15.0, target="leader"
                ),
            )
        )
        result = run_churn_election(8, a0=0.3, script=script, seed=11)
        assert result.elected
        assert result.stabilized
        assert result.crashes == 2
        assert result.recoveries == 2
        assert result.re_elections >= 1

    def test_explicit_recover_event_pairing(self):
        script = FaultScript(
            events=(
                CrashEvent(node=4, time=30.0),
                RecoverEvent(node=4, time=70.0),
            )
        )
        assert script.eventually_quiescent
        result = run_churn_election(8, a0=0.3, script=script, seed=13)
        assert result.stabilized
        assert result.crashes == 1
        assert result.recoveries == 1


class TestTimeoutPath:
    def test_suspicions_bump_epochs(self):
        # A long leader outage with a short liveness timeout forces the
        # timeout detection path: non-leaders suspect, bump the epoch, and
        # restart -- the final epoch moves past zero.
        script = FaultScript(
            events=(CrashEvent(node="leader", time=40.0, downtime=120.0),),
            heartbeat_interval=8.0,
            leader_timeout=20.0,
        )
        result = run_churn_election(8, a0=0.3, script=script, seed=3)
        assert result.stabilized
        assert result.suspicions > 0
        assert result.final_epoch > 0
        # Epoch races during the long outage may depose an interim crown, so
        # more than one loss/re-crown episode can be recorded.
        assert result.re_elections >= 1
