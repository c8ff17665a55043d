"""Unit tests for the columnar election engine (:mod:`repro.core.vector_core`).

The vector core draws from its own numpy streams (see the stream-migration
note in ``tests/harness/differential.py``), so these tests check engine
*semantics* -- determinism, the election invariants, fault handling, budget
classification and the ``core="vector"`` dispatch contract -- rather than
event-for-event equality with the object core.  Distributional agreement
with the object core and a per-tick reference is checked by two-sample KS
tests in ``tests/oracles/test_activation_parity.py``; the election contract
both cores share is property-tested in ``tests/test_property_vector_core.py``.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.core.runner import ELECTION_CORES, ElectionResult, run_election
from repro.sim.engine import SimulationDiverged
from repro.core.vector_core import VectorRingElection, run_vector_election
from repro.network.delays import ConstantDelay, ExponentialDelay, UniformDelay


#: Full results recorded before the pending-arrival store became one tuple
#: heap.  Any change to the heap layout, tie order (push order at equal
#: times) or stream consumption moves at least one of these.
SAMPLE_PATH_PINS = [
    ("exponential-n8", dict(n=8, a0=0.3, seed=1),
     ElectionResult(8, True, 5, 41.56268562442386, 72, 7, 20, 99, 0, 113, 1, 0.3, 1)),
    ("exponential-n64", dict(n=64, a0=0.3, seed=2),
     ElectionResult(64, True, 50, 1751.3950775447413, 4992, 63, 392, 5453, 0, 6743, 2, 0.3, 1)),
    ("exponential-n1000", dict(n=1000, a0=0.001, seed=3),
     ElectionResult(1000, True, 570, 88973.18573246818, 291000, 999, 1308, 337894, 0,
                    379973, 3, 0.001, 1)),
    ("constant-ties", dict(n=64, a0=0.02, seed=4, delay=ConstantDelay(1.0)),
     ElectionResult(64, True, 58, 775.0, 1536, 63, 63, 2369, 0, 2311, 4, 0.02, 1)),
    ("fifo", dict(n=64, a0=0.3, seed=5, fifo=True),
     ElectionResult(64, True, 21, 1471.7098128464738, 4096, 63, 301, 4513, 0, 5567, 5, 0.3, 1)),
    ("loss", dict(n=16, a0=0.1, seed=6, message_loss=0.05),
     ElectionResult(16, False, None, None, 46, 13, 14, 192, 0, 88, 6, 0.1, 0)),
    ("processing", dict(n=64, a0=0.3, seed=7, processing_delay=ExponentialDelay(mean=0.2)),
     ElectionResult(64, True, 44, 2780.4895802452565, 7168, 63, 582, 9170, 0, 9948, 7, 0.3, 1)),
    ("crash", dict(n=64, a0=0.3, seed=8, crashes=[(1, 3.0)]),
     ElectionResult(64, False, None, None, 516, 51, 162, 1382, 0, 597, 8, 0.3, 0)),
    ("purge-off", dict(n=16, a0=0.1, seed=9, purge_at_active=False, max_events=20000),
     ElectionResult(16, False, None, None, 19993, 16, 7, 66, 19911, 20000, 9, 0.1, 0)),
]


class TestDeterminism:
    def test_same_seed_same_result(self):
        first = run_vector_election(32, a0=0.05, seed=7)
        second = run_vector_election(32, a0=0.05, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        results = {
            (run_vector_election(32, a0=0.05, seed=seed).leader_uid,
             run_vector_election(32, a0=0.05, seed=seed).election_time)
            for seed in range(8)
        }
        assert len(results) > 1


class TestSamplePathPins:
    """Exact results per seed: the vector core's sample path is frozen."""

    @pytest.mark.parametrize(
        "kwargs, expected",
        [case[1:] for case in SAMPLE_PATH_PINS],
        ids=[case[0] for case in SAMPLE_PATH_PINS],
    )
    def test_result_matches_pin(self, kwargs, expected):
        assert run_vector_election(**kwargs) == expected


class TestArrivalHeap:
    """Pending arrivals are one heap of ``(time, seq, hop, dst)`` tuples."""

    def test_activation_round_pushes_ties_in_array_order(self):
        election = VectorRingElection(5, delay=ConstantDelay(1.0), seed=0)
        election._activate_batch(np.array([0, 2, 4]), 0.0)
        # Equal arrival times pop by push order; node 4's successor wraps to 0.
        assert [heapq.heappop(election._heap) for _ in range(3)] == [
            (1.0, 0, 1, 1),
            (1.0, 1, 1, 3),
            (1.0, 2, 1, 0),
        ]
        assert election._seq == 3
        assert election.activations == election.messages_total == 3
        assert election._idle_count == 2 and election._active_count == 3

    def test_time_dominates_the_push_order(self):
        election = VectorRingElection(5, delay=ConstantDelay(1.0), seed=0)
        election._activate_batch(np.array([3]), 0.5)
        election._activate_batch(np.array([0, 1]), 0.0)
        assert [heapq.heappop(election._heap) for _ in range(3)] == [
            (1.0, 1, 1, 1),
            (1.0, 2, 1, 2),
            (1.5, 0, 1, 4),
        ]

    def test_processing_delay_lands_on_the_pushed_arrival(self):
        election = VectorRingElection(
            4, delay=ConstantDelay(1.0), processing_delay=ConstantDelay(0.25), seed=0
        )
        election._activate_batch(np.array([1, 3]), 2.0)
        assert sorted(election._heap) == [(3.25, 0, 1, 2), (3.25, 1, 1, 0)]

    @pytest.mark.parametrize(
        "kwargs",
        [case[1] for case in SAMPLE_PATH_PINS],
        ids=[case[0] for case in SAMPLE_PATH_PINS],
    )
    def test_every_message_is_one_heap_entry(self, kwargs):
        kwargs = dict(kwargs)
        max_events = kwargs.pop("max_events", None)
        election = VectorRingElection(**kwargs)
        result = election.run(max_events=max_events)
        # One push per message sent; each push is delivered (dropped and
        # crashed-destination arrivals included) or still pending.
        assert election._seq == result.messages_total
        assert election.deliveries + len(election._heap) == election._seq
        assert result.events_processed == election.rounds + election.deliveries


class TestInvariants:
    @pytest.mark.parametrize("n", [2, 3, 8, 31, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unique_leader_and_knockouts(self, n, seed):
        result = run_vector_election(n, a0=0.1, seed=seed)
        assert result.elected
        assert result.leaders_elected == 1
        assert 0 <= result.leader_uid < n
        # Clean path: every non-leader is knocked out exactly once and no
        # hop counter ever exceeds n.
        assert result.knockout_messages == n - 1
        assert result.hop_overflows == 0
        assert result.activations >= 1
        assert result.messages_total >= n

    def test_delay_families(self):
        for delay in (
            ConstantDelay(value=1.0),
            UniformDelay(low=0.5, high=1.5),
            ExponentialDelay(mean=1.0),
        ):
            result = run_vector_election(16, a0=0.05, delay=delay, seed=3)
            assert result.elected
            assert result.leaders_elected == 1

    def test_fifo_and_processing_delay(self):
        result = run_vector_election(
            16,
            a0=0.05,
            seed=5,
            fifo=True,
            processing_delay=ConstantDelay(value=0.01),
        )
        assert result.elected
        assert result.leaders_elected == 1

    def test_purge_off_still_at_most_one_leader(self):
        # Ablation A2: purging disabled can legitimately livelock (all nodes
        # passive, a token circulating forever), so only safety is asserted.
        for seed in range(6):
            result = run_vector_election(
                8, a0=0.2, seed=seed, purge_at_active=False, max_events=20_000
            )
            assert result.leaders_elected <= 1


class TestFaults:
    def test_crash_breaks_unidirectional_ring(self):
        # A crashed node partitions a unidirectional ring: no message can
        # complete the circuit, so the election cannot finish.
        result = run_vector_election(
            12, a0=0.1, seed=1, crashes=[(2, 1.0)], max_events=50_000
        )
        assert not result.elected
        assert result.leaders_elected == 0

    def test_message_loss_keeps_safety(self):
        for seed in range(5):
            result = run_vector_election(
                12, a0=0.1, seed=seed, message_loss=0.05, max_events=50_000
            )
            assert result.leaders_elected <= 1
            if result.elected:
                assert 0 <= result.leader_uid < 12

    def test_loss_probability_one_rejected(self):
        # Same contract as MessageLossFault: certain loss is a config error.
        with pytest.raises(ValueError, match="message_loss"):
            run_vector_election(8, message_loss=1.0)

    def test_crash_before_start_excludes_node(self):
        for seed in range(5):
            result = run_vector_election(8, a0=0.2, seed=seed, crashes=[(3, 0.0)])
            assert result.leader_uid != 3


class TestBudget:
    def test_on_budget_stop_truncates(self):
        result = run_vector_election(
            64, a0=1e-9, seed=0, max_events=50, on_budget="stop"
        )
        assert not result.elected

    def test_on_budget_raise(self):
        with pytest.raises(SimulationDiverged):
            run_vector_election(64, a0=1e-9, seed=0, max_events=50, on_budget="raise")

    def test_max_time_truncates(self):
        result = run_vector_election(64, a0=1e-9, seed=0, max_time=3.0)
        assert not result.elected


class TestRunnerDispatch:
    def test_cores_registry(self):
        assert ELECTION_CORES == ("object", "vector")

    def test_vector_core_dispatch_matches_direct_call(self):
        via_runner = run_election(16, a0=0.05, seed=4, core="vector")
        direct = run_vector_election(16, a0=0.05, seed=4)
        assert via_runner == direct

    def test_unknown_core_rejected(self):
        with pytest.raises(ValueError, match="core must be one of"):
            run_election(8, core="compiled")

    def test_vector_rejects_clock_bounds(self):
        with pytest.raises(ValueError, match="clock_bounds"):
            run_election(8, core="vector", clock_bounds=(0.9, 1.1))

    def test_vector_rejects_drift(self):
        with pytest.raises(ValueError, match="drift"):
            run_election(8, core="vector", clock_drift_factory=lambda rng: None)

    def test_vector_rejects_trace(self):
        with pytest.raises(ValueError, match="trace"):
            run_election(8, core="vector", enable_trace=True)

    def test_object_core_unchanged_by_default(self):
        assert run_election(8, a0=0.2, seed=0) == run_election(
            8, a0=0.2, seed=0, core="object"
        )


class TestScenarioWiring:
    def test_spec_round_trip_and_default_omission(self):
        from repro.scenarios.spec import ScenarioSpec, SpecNode

        spec = ScenarioSpec(
            algorithm="abe-election",
            topology=SpecNode("uniring", {"n": 16}),
            core="vector",
        )
        data = spec.to_dict()
        assert data["core"] == "vector"
        assert ScenarioSpec.from_dict(data).core == "vector"
        assert "core" not in ScenarioSpec(
            algorithm="abe-election", topology=SpecNode("uniring", {"n": 16})
        ).to_dict()
        with pytest.raises(ValueError, match="core"):
            ScenarioSpec(
                algorithm="abe-election",
                topology=SpecNode("uniring", {"n": 4}),
                core="gpu",
            )

    def test_trial_translates_faults(self):
        from repro.scenarios.runtime import run_scenario
        from repro.scenarios.spec import ScenarioSpec, SpecNode

        spec = ScenarioSpec(
            algorithm="abe-election",
            topology=SpecNode("uniring", {"n": 10}),
            core="vector",
            faults=(
                SpecNode("message-loss", {"loss_probability": 0.05}),
                SpecNode("crash", {"node_uid": 2, "crash_time": 0.0}),
            ),
            trials=2,
            seed=11,
        )
        for result in run_scenario(spec):
            assert result.leaders_elected <= 1
            assert not result.elected  # initial crash partitions the ring

    def test_trial_rejects_vector_incompatible_specs(self):
        from repro.scenarios.runtime import run_scenario
        from repro.scenarios.spec import ScenarioSpec, SpecNode

        base = dict(
            algorithm="abe-election", topology=SpecNode("uniring", {"n": 8})
        )
        with pytest.raises(ValueError, match="clock_bounds"):
            run_scenario(
                ScenarioSpec(core="vector", clock_bounds=(0.8, 1.2), **base)
            )
        with pytest.raises(ValueError, match="core"):
            run_scenario(
                ScenarioSpec(
                    algorithm="echo-wave",
                    topology=SpecNode("uniring", {"n": 8}),
                    core="vector",
                )
            )

    def test_study_scaling_fits(self):
        from repro.scenarios.report import render_study_scaling, study_scaling_fits
        from repro.scenarios.runtime import run_study
        from repro.scenarios.spec import ScenarioSpec, SpecNode, StudySpec

        points = tuple(
            ScenarioSpec(
                algorithm="abe-election",
                topology=SpecNode("uniring", {"n": n}),
                core="vector",
                trials=3,
                seed=9,
                label=f"n{n}",
            )
            for n in (8, 16, 32)
        )
        study = StudySpec(name="scaling-smoke", points=points)
        per_point = run_study(study)
        fitted = study_scaling_fits(study, per_point)
        assert fitted is not None
        assert fitted["sizes"] == [8, 16, 32]
        assert set(fitted["fits"]) == {"election_time", "messages_total"}
        text = render_study_scaling(study, per_point)
        assert "fitted scaling laws" in text
        assert "best fit" in text

    def test_scaling_fits_none_for_single_size(self):
        from repro.scenarios.report import study_scaling_fits
        from repro.scenarios.runtime import run_study
        from repro.scenarios.spec import ScenarioSpec, SpecNode, StudySpec

        point = ScenarioSpec(
            algorithm="abe-election",
            topology=SpecNode("uniring", {"n": 8}),
            trials=2,
            seed=1,
        )
        study = StudySpec(name="one-size", points=(point,))
        per_point = run_study(study)
        assert study_scaling_fits(study, per_point) is None
