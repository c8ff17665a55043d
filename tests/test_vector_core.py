"""Unit tests for the columnar election engine (:mod:`repro.core.vector_core`).

The vector core draws from its own numpy streams (see the stream-migration
note in ``tests/harness/differential.py``), so these tests check engine
*semantics* -- the idle-spell activation rule, determinism, the election
invariants, fault handling, budget classification and the ``core="vector"``
dispatch contract -- rather than event-for-event equality with the object
core.  Its sample paths are pinned by the ``vector_core_sample_paths``
golden (``tests/test_differential_election.py``).  Distributional agreement
with the object core and a per-tick reference is checked by two-sample KS
tests in ``tests/oracles/test_activation_parity.py``; the election contract
both cores share is property-tested in ``tests/test_property_vector_core.py``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from types import SimpleNamespace

import pytest

from harness.differential import vector_core_cases
from repro.core import vector_core
from repro.core.activation import ActivationSchedule, geometric_wait
from repro.core.runner import (
    ELECTION_CORES,
    build_election_network,
    run_election,
    run_election_on_network,
)
from repro.sim.engine import SimulationDiverged
from repro.core.vector_core import VectorRingElection, run_vector_election
from repro.network.delays import ConstantDelay, ExponentialDelay, UniformDelay
from repro.network.faults import CrashStopFault, FaultInjector
from repro.sim.rng import RandomSource

VECTOR_CORE_CASES = vector_core_cases()


class _Certain(ActivationSchedule):
    """Every idle spell activates at its first tick."""

    def probability(self, d):
        return 1.0


def _election(n, messages=(), *, start_up=True, **kwargs):
    """A ``ConstantDelay(1.0)`` election with ``(time, hop, dst)`` messages in flight.

    ``start_up=False`` drops the start-up spells, so nothing happens but the
    messages and what they cause.
    """
    election = VectorRingElection(n, delay=ConstantDelay(1.0), seed=0, **kwargs)
    if not start_up:
        election._heap[:] = [e for e in election._heap if e[2] != vector_core._START_UP]
        election._start_index = election._start_nodes.size
    for time, hop, dst in messages:
        election._heap.append((time, election._seq, hop, dst))
        election._seq += 1
    heapq.heapify(election._heap)
    return election


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


class TestIdleSpells:
    """One Geometric wait per idle spell, queued on the one event heap."""

    @pytest.mark.parametrize(
        "n, a0, seed", [(8, 0.3, 1), (64, 0.02, 4), (1000, None, 3)]
    )
    def test_start_up_spells_are_the_scalar_rule_on_one_uniform_vector(self, n, a0, seed):
        # Reference: geometric_wait node by node on the stream's first n
        # uniforms, ordered by (activation time, node).
        election = VectorRingElection(n, a0=a0, seed=seed)
        uniforms = RandomSource(seed).numpy_stream("vector/waits").random(n).tolist()
        probability = election.schedule.probability(1)
        expected = sorted(
            (geometric_wait(probability, uniform) * 1.0, node)
            for node, uniform in enumerate(uniforms)
        )
        assert list(zip(election._start_times.tolist(), election._start_nodes.tolist())) == expected

    def test_start_up_activation_fires_before_a_same_instant_delivery(self):
        # p = 1: every start-up spell fires at t = 1, when a <1> also
        # reaches node 1.  Activations first: all three nodes activate, then
        # the <1> knocks node 1 back to idle.  Delivery first would knock
        # node 1 out instead.
        election = _election(3, [(1.0, 1, 1)], schedule=_Certain())
        result = election.run(max_events=4)
        assert (result.activations, result.knockout_messages) == (3, 0)
        assert election._status[1] == vector_core._IDLE

    def test_knock_back_activation_fires_before_a_same_instant_delivery(self):
        # Active node 1 is knocked back at t = 1 and, with p = 1, activates
        # again at t = 2, when a second <1> reaches it.
        election = _election(3, [(1.0, 1, 1), (2.0, 1, 1)], start_up=False, schedule=_Certain())
        election._status[1] = vector_core._ACTIVE
        result = election.run(max_events=3)
        assert (result.activations, result.knockout_messages) == (1, 0)
        assert election._status[1] == vector_core._IDLE

    def test_a_dropped_spell_is_neither_an_event_nor_pending_work(self):
        # Node 0 crashes at 0.5; a <1> knocks out node 1 at t = 1, whose <2>
        # knocks out node 2 at t = 2; the <3> dies at the crashed node 0.
        # With a0 = 1e-9 every start-up spell lies far beyond max_time, and
        # every one belongs to a crashed or knocked-out node.
        election = _election(3, [(1.0, 1, 1)], a0=1e-9, crashes=[(0, 0.5)])
        result = election.run(max_time=5.0, on_budget="raise")
        assert not result.elected
        assert result.events_processed == 3 == election.deliveries
        assert result.knockout_messages == 2 and result.activations == 0
        assert election.deliveries_to_crashed == 1
        assert election._heap == []
        # Ticks up to each stop: node 0 none by 0.5, node 1 one, node 2 two.
        assert result.ticks == 3

    @pytest.mark.parametrize("max_time, diverges", [(60.0, False), (40.0, True)])
    def test_quiescent_run_is_classified_as_the_object_core_classifies_it(
        self, max_time, diverges
    ):
        # Every node has crashed by t = 50, with spells (of crashed or
        # knocked-out nodes) still queued past max_time = 60: a quiescent,
        # undecided run.  With max_time = 40 the crashes are live work beyond
        # the horizon, so both cores report divergence.
        crashes = [(0, 0.0), (1, 50.0), (2, 50.0)]
        for seed in range(4):
            network, status = build_election_network(3, a0=0.01, seed=seed)
            FaultInjector(network).apply(
                [CrashStopFault(node_uid=uid, crash_time=when) for uid, when in crashes]
            )
            election = VectorRingElection(3, a0=0.01, seed=seed, crashes=crashes)
            outcomes = []
            for run in (
                lambda: run_election_on_network(
                    network, status, max_time=max_time, on_budget="raise"
                ),
                lambda: election.run(max_time=max_time, on_budget="raise"),
            ):
                try:
                    outcomes.append(run().elected)
                except SimulationDiverged:
                    outcomes.append("diverged")
            assert outcomes == (["diverged"] * 2 if diverges else [False, False]), seed

    def test_ticks_count_the_grid_up_to_each_stop_like_the_object_core(self):
        # a0 = 1e-9: no node activates before max_time, so the count is
        # exact -- node 0 stops at its crash (5 ticks), the rest at 7.5 (7).
        crashes = [(0, 5.5)]
        network, status = build_election_network(4, a0=1e-9, seed=0)
        FaultInjector(network).apply([CrashStopFault(node_uid=0, crash_time=5.5)])
        reference = run_election_on_network(network, status, max_time=7.5)
        result = run_vector_election(4, a0=1e-9, seed=0, crashes=crashes, max_time=7.5)
        assert result.ticks == reference.ticks == 5 + 3 * 7
        assert result.events_processed == 0

    def test_heap_holds_messages_in_flight_and_queued_spells(self, monkeypatch):
        """Start-up spells are fed one at a time, so the heap stays O(messages)."""
        sizes = []

        def push(heap, entry):
            heapq.heappush(heap, entry)
            kinds = Counter(min(hop, 1) for _, _, hop, _ in heap)
            assert kinds[vector_core._START_UP] <= 1
            sizes.append(len(heap))

        monkeypatch.setattr(
            vector_core,
            "heapq",
            SimpleNamespace(heappush=push, heappop=heapq.heappop, heapify=heapq.heapify),
        )
        result = run_vector_election(2000, seed=3)
        assert result.elected
        # Each activation puts one token in flight and each knock-back one
        # spell in the queue; the fed start-up spell is the one more.
        assert max(sizes) <= 2 * result.activations + 1

    @pytest.mark.parametrize(
        "kwargs",
        [case[1] for case in VECTOR_CORE_CASES],
        ids=[case[0] for case in VECTOR_CORE_CASES],
    )
    def test_events_are_activations_plus_deliveries(self, kwargs):
        kwargs = dict(kwargs)
        max_events = kwargs.pop("max_events", None)
        election = VectorRingElection(**kwargs)
        result = election.run(max_events=max_events)
        assert result.events_processed == result.activations + election.deliveries
        # One push per message sent; each is delivered (dropped and
        # crashed-destination arrivals included) or still pending.
        in_flight = sum(1 for _, _, hop, _ in election._heap if hop > 0)
        assert election._seq == result.messages_total
        assert election.deliveries + in_flight == result.messages_total


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
        from repro.report import render_study_scaling, study_scaling_fits
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
        assert "messages_total: log-log slope " in text
        assert "(95% CI " in text and "over n = 8..32" in text
        assert "best fit" not in text

    def test_scaling_fits_none_for_single_size(self):
        from repro.report import study_scaling_fits
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

    def test_scaling_fits_none_for_a_single_value_per_size(self):
        from repro.report import render_study_scaling, study_scaling_fits
        from repro.scenarios.runtime import run_study
        from repro.scenarios.spec import ScenarioSpec, SpecNode, StudySpec

        points = tuple(
            ScenarioSpec(
                algorithm="abe-election",
                topology=SpecNode("uniring", {"n": n}),
                core="vector",
                trials=1,
                seed=9,
                label=f"n{n}",
            )
            for n in (8, 16, 32)
        )
        study = StudySpec(name="one-trial", points=points)
        per_point = run_study(study)
        assert study_scaling_fits(study, per_point) is None
        assert render_study_scaling(study, per_point) is None

    def test_scaling_fits_none_when_trials_send_nothing(self):
        from types import SimpleNamespace

        from repro.report import render_study_scaling, study_scaling_fits
        from repro.scenarios.runtime import run_study
        from repro.scenarios.spec import ScenarioSpec, SpecNode, StudySpec

        # Four events end each object-core run before any node sends.
        points = tuple(
            ScenarioSpec(
                algorithm="abe-election",
                topology=SpecNode("uniring", {"n": n}),
                trials=2,
                seed=9,
                max_events=4,
                label=f"n{n}",
            )
            for n in (8, 16, 32)
        )
        study = StudySpec(name="budgeted", points=points)
        per_point = run_study(study)
        assert [r.messages_total for results in per_point for r in results] == [0] * 6
        assert study_scaling_fits(study, per_point) is None
        assert render_study_scaling(study, per_point) is None
        # A zero cost has no logarithm even when every election completes.
        completed = [
            [SimpleNamespace(elected=True, election_time=float(n), messages_total=m) for m in (0, n)]
            for n in (8, 16, 32)
        ]
        assert study_scaling_fits(study, completed) is None
