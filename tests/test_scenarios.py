"""Tests for the declarative scenario API (specs, registries, entry points).

The load-bearing guarantees:

* a :class:`~repro.scenarios.spec.ScenarioSpec` that mirrors an experiment's
  parameters reproduces the kwarg-driven run **bit for bit** (same derived
  seeds, same trial callable, same results);
* ``to_dict -> from_dict`` is the identity, and running the round-tripped
  spec is deterministic end to end;
* unknown registry keys fail fast with the list of known keys;
* every registered experiment exposes a ``build_study`` whose points resolve
  against the registries -- the declarative catalogue and the experiment
  modules cannot drift apart;
* every spec file under ``examples/scenarios/`` loads and runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.analysis import recommended_a0
from repro.core.runner import run_election
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import AdaptiveStopping, monte_carlo, trial_seeds
from repro.experiments.workloads import election_spec
from repro.network.delays import ExponentialDelay
from repro.report import render_scenario
from repro.scenarios import (
    ALGORITHMS,
    DELAYS,
    TOPOLOGIES,
    ScenarioSpec,
    SpecNode,
    StudySpec,
    SweepSpec,
    load_spec,
    run_scenario,
    run_study,
    spec_from_dict,
)
from repro.scenarios.registry import DRIFTS, SCHEDULES, build_delay

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def direct_election(n, seed, delay=None, **kwargs):
    """The call an ``election_spec(n, ...)`` trial makes at ``seed``, spelt out."""
    delay = delay if delay is not None else ExponentialDelay(mean=1.0)
    return run_election(n, a0=recommended_a0(n), delay=delay, seed=seed, **kwargs)


def direct_elections(n, trials, base_seed, **kwargs):
    """``direct_election`` at each derived seed of the spec's ``n{n}`` family."""
    return [direct_election(n, seed, **kwargs) for seed in trial_seeds(base_seed, trials, f"n{n}")]


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.algorithm == "abe-election"
        assert spec.topology.kind == "uniring"

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(trials=0)
        with pytest.raises(ValueError):
            ScenarioSpec(a0=1.5)
        with pytest.raises(ValueError):
            ScenarioSpec(clock_bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            ScenarioSpec(tick_period=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(workers=-1)

    def test_delay_and_retransmission_are_exclusive(self):
        with pytest.raises(ValueError, match="retransmission"):
            ScenarioSpec(
                delay={"kind": "exponential"},
                retransmission={"success_probability": 0.5},
            )

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ValueError, match="topologyy"):
            ScenarioSpec.from_dict({"topologyy": {"kind": "uniring"}})
        # A retired knob is an unknown field too: specs that still ask for
        # block-sampled delays fail loudly instead of silently running the
        # one remaining delay stream.
        with pytest.raises(ValueError, match="batch_sampling"):
            ScenarioSpec.from_dict({"batch_sampling": False})
        # Likewise the per-tick mode switch: activation is one timer per
        # idle spell, and there is no second tick path left to select.
        with pytest.raises(ValueError, match="batch_ticks"):
            ScenarioSpec.from_dict({"batch_ticks": True})

    def test_node_shorthand_string(self):
        spec = ScenarioSpec(delay="exponential")
        assert spec.delay == SpecNode("exponential")

    def test_stopping_mapping_becomes_rule(self):
        spec = ScenarioSpec(stopping={"ci_tolerance": 0.1, "min_trials": 4})
        assert isinstance(spec.stopping, AdaptiveStopping)
        assert spec.stopping.ci_tolerance == 0.1


class TestJsonRoundTrip:
    def _rich_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 12}},
            delay={
                "kind": "per-link",
                "params": {
                    "delays": [
                        {"kind": "exponential", "params": {"mean": 1.0}},
                        {"kind": "uniform", "params": {"low": 0.5, "high": 1.5}},
                    ]
                },
            },
            seed=5,
            trials=3,
            label="rich",
            fifo=True,
            clock_bounds=(0.5, 2.0),
            drift={"kind": "random-walk", "params": {"initial_rate": 1.25, "step": 0.1}},
            faults=({"kind": "message-loss", "params": {"loss_probability": 0.01}},),
            stopping=AdaptiveStopping(ci_tolerance=0.2, min_trials=2, max_trials=3),
            max_events=50_000,
        )

    def test_round_trip_is_identity(self):
        spec = self._rich_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_survives_json_serialization(self):
        spec = self._rich_spec()
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_defaults_are_omitted_from_dict(self):
        data = ScenarioSpec(seed=9).to_dict()
        assert data["seed"] == 9
        assert "fifo" not in data and "purge_at_active" not in data

    def test_round_tripped_spec_runs_deterministically(self):
        spec = ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 10}}, seed=3, trials=3, label="rt"
        )
        direct = run_scenario(spec)
        round_tripped = run_scenario(
            spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        )
        assert direct == round_tripped

    def test_study_round_trip(self):
        study = StudySpec(
            name="demo",
            metric="election_time",
            points=(ScenarioSpec(seed=1, label="a"), ScenarioSpec(seed=2, label="b")),
        )
        again = StudySpec.from_dict(json.loads(json.dumps(study.to_dict())))
        assert again == study

    def test_spec_from_dict_dispatches_on_points(self):
        assert isinstance(spec_from_dict({"study": "s", "points": [{}]}), StudySpec)
        assert isinstance(spec_from_dict({"seed": 1}), ScenarioSpec)


class TestRegistryErrors:
    def test_unknown_topology_names_candidates(self):
        spec = ScenarioSpec(
            algorithm="echo-wave", topology={"kind": "moebius", "params": {"n": 8}}
        )
        with pytest.raises(ValueError, match="known topologies.*grid"):
            run_scenario(spec)

    def test_unknown_delay_names_candidates(self):
        with pytest.raises(ValueError, match="known delay models.*exponential"):
            run_scenario(ScenarioSpec(delay={"kind": "gaussian"}))

    def test_unknown_algorithm_names_candidates(self):
        with pytest.raises(ValueError, match="known algorithms.*abe-election"):
            run_scenario(ScenarioSpec(algorithm="paxos"))

    def test_unknown_drift_names_candidates(self):
        with pytest.raises(ValueError, match="known drift models.*random-walk"):
            run_scenario(ScenarioSpec(drift={"kind": "brownian"}))

    def test_unknown_schedule_names_candidates(self):
        with pytest.raises(ValueError, match="known activation schedules.*adaptive"):
            run_scenario(ScenarioSpec(schedule={"kind": "linear"}))

    def test_bad_parameters_name_the_kind(self):
        with pytest.raises(ValueError, match="bad parameters for delay model 'exponential'"):
            run_scenario(ScenarioSpec(delay={"kind": "exponential", "params": {"rate": 2}}))

    def test_ring_algorithm_rejects_non_ring_topology(self):
        spec = ScenarioSpec(topology={"kind": "grid", "params": {"rows": 3, "cols": 3}})
        with pytest.raises(ValueError, match="ring topologies"):
            run_scenario(spec)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TOPOLOGIES.register("uniring", lambda n: None)


class TestSpecVsKwargBitIdentity:
    def test_plain_election_matches_run_election(self):
        spec = ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 16}},
            seed=7,
            trials=4,
            label="n16",
            a0=0.3,
        )
        expected = [run_election(16, a0=0.3, seed=s) for s in trial_seeds(7, 4, "n16")]
        assert run_scenario(spec) == expected

    def test_election_spec_matches_direct_calls(self):
        """The representative check: the declarative path reproduces the
        direct ``run_election`` call (same labels, same derived seeds) bit
        for bit."""
        spec = election_spec(12, 5, 31, fifo=True)
        assert run_scenario(spec) == direct_elections(12, 5, 31, fifo=True)

    def test_drift_spec_matches_drift_factory_kwargs(self):
        from repro.sim.clock import RandomWalkDrift

        spec = election_spec(
            10,
            3,
            13,
            clock_bounds=(0.5, 2.0),
            drift=SpecNode("random-walk", {"initial_rate": 1.25, "step": 0.15}),
        )
        expected = direct_elections(
            10,
            3,
            13,
            clock_bounds=(0.5, 2.0),
            clock_drift_factory=lambda uid: RandomWalkDrift(initial_rate=1.25, step=0.15),
        )
        assert run_scenario(spec) == expected

    def test_adaptive_stopping_matches(self):
        rule = AdaptiveStopping(ci_tolerance=0.5, min_trials=2, batch_size=2)
        spec = election_spec(8, 12, 3)
        expected = monte_carlo(
            lambda seed: direct_election(8, seed),
            12,
            3,
            label="n8",
            adaptive=rule.resolved("messages_total"),
        )
        assert run_scenario(spec, adaptive=rule) == expected
        # The rule can equivalently live on the spec itself.
        assert run_scenario(spec.replace(stopping=rule)) == run_scenario(
            spec, adaptive=rule
        )


class TestStudiesAndExperimentsStayInSync:
    """CI gate: every registered experiment must define a StudySpec battery
    whose points resolve against the registries."""

    def test_every_experiment_has_a_build_study(self):
        for experiment_id, module in sorted(ALL_EXPERIMENTS.items()):
            assert hasattr(module, "build_study"), (
                f"experiment {experiment_id} has no build_study(); every "
                "experiment must define its declarative StudySpec battery"
            )

    @pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
    def test_studies_compile_against_the_registries(self, experiment_id):
        study = ALL_EXPERIMENTS[experiment_id].build_study()
        assert isinstance(study, StudySpec)
        assert study.name == experiment_id
        for point in study.points:
            assert point.algorithm in ALGORITHMS
            assert point.topology.kind in TOPOLOGIES
            if point.delay is not None:
                assert point.delay.kind in DELAYS
            if point.drift is not None:
                assert point.drift.kind in DRIFTS
            if point.schedule is not None:
                assert point.schedule.kind in SCHEDULES

    @pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
    def test_studies_serialize(self, experiment_id):
        study = ALL_EXPERIMENTS[experiment_id].build_study()
        again = StudySpec.from_dict(json.loads(study.to_json()))
        assert again == study

    def test_run_study_matches_per_point_run_scenario(self):
        study = ALL_EXPERIMENTS["e2"].build_study(sizes=(6, 8), trials=2, base_seed=5)
        assert run_study(study) == [run_scenario(point) for point in study.points]


class TestSweepSpec:
    def test_expansion_applies_overrides_in_order(self):
        sweep = SweepSpec(
            base=ScenarioSpec(seed=4),
            points=(
                {"topology": SpecNode("uniring", {"n": 8}), "label": "n8"},
                {"topology": SpecNode("uniring", {"n": 12}), "label": "n12"},
            ),
        )
        scenarios = sweep.scenarios()
        assert [s.topology.params["n"] for s in scenarios] == [8, 12]
        assert [s.label for s in scenarios] == ["n8", "n12"]
        study = StudySpec.from_sweep("sweep-demo", sweep)
        assert len(study.points) == 2

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(base=ScenarioSpec(), points=())


class TestNonRingWorkloads:
    def test_echo_wave_covers_a_grid(self):
        spec = ScenarioSpec(
            algorithm="echo-wave",
            topology={"kind": "grid", "params": {"rows": 3, "cols": 4}},
            seed=5,
            trials=2,
            label="grid",
        )
        results = run_scenario(spec)
        assert all(r.completed for r in results)
        assert all(r.nodes_reached == 12 for r in results)
        assert results == run_scenario(spec)  # deterministic

    def test_flooding_wave_informs_a_tree(self):
        spec = ScenarioSpec(
            algorithm="flooding-wave",
            topology={"kind": "tree", "params": {"n": 15, "branching": 2}},
            seed=2,
            trials=2,
            label="tree",
        )
        results = run_scenario(spec)
        assert all(r.completed and r.nodes_reached == 15 for r in results)

    def test_per_link_delay_assigns_models_cyclically(self):
        node = SpecNode(
            "per-link",
            {
                "delays": [
                    {"kind": "constant", "params": {"value": 1.0}},
                    {"kind": "constant", "params": {"value": 2.0}},
                ]
            },
        )
        factory = build_delay(node)
        assert factory(0, 0, 1).value == 1.0
        assert factory(1, 1, 2).value == 2.0
        assert factory(2, 2, 3).value == 1.0
        assert factory.mean() == 2.0

    def test_heterogeneous_link_election_elects(self):
        spec = ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 10}},
            delay={
                "kind": "per-link",
                "params": {
                    "delays": [
                        {"kind": "exponential", "params": {"mean": 1.0}},
                        {"kind": "uniform", "params": {"low": 0.2, "high": 1.8}},
                    ]
                },
            },
            seed=1,
            trials=2,
            label="hetero",
        )
        results = run_scenario(spec)
        assert all(r.elected and r.leaders_elected == 1 for r in results)

    def test_faulted_election_counts_drops(self):
        spec = ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 8}},
            seed=6,
            trials=2,
            label="faulted",
            faults=({"kind": "message-loss", "params": {"loss_probability": 0.2}},),
            max_events=30_000,
            max_time=500.0,
        )
        results = run_scenario(spec)
        assert len(results) == 2  # bounded runs always return

    def test_one_shot_algorithms_reject_trials(self):
        spec = ScenarioSpec(
            algorithm="lossy-channel", trials=3, params={"p": 0.5, "messages": 100}
        )
        with pytest.raises(ValueError, match="one-shot"):
            run_scenario(spec)

    def test_wave_faults_are_applied_not_ignored(self):
        clean = ScenarioSpec(
            algorithm="echo-wave",
            topology={"kind": "star", "params": {"n": 8}},
            seed=4,
            trials=1,
            label="star",
            max_events=5_000,
        )
        crashed = clean.replace(
            faults=({"kind": "crash", "params": {"node_uid": 3, "crash_time": 0.0}},)
        )
        healthy = run_scenario(clean)[0]
        broken = run_scenario(crashed)[0]
        assert healthy.completed and healthy.nodes_reached == 8
        # A crash-stopped leaf swallows its token and never echoes back, so
        # the initiator can never complete the wave.
        assert not broken.completed

    def test_unsupported_knobs_rejected_not_ignored(self):
        with pytest.raises(ValueError, match="does not support the 'max_time' knob"):
            run_scenario(
                ScenarioSpec(
                    algorithm="chang-roberts",
                    topology={"kind": "uniring", "params": {"n": 8}},
                    max_time=0.001,
                )
            )
        with pytest.raises(ValueError, match="does not support the 'a0' knob"):
            run_scenario(
                ScenarioSpec(
                    algorithm="itai-rodeh",
                    topology={"kind": "uniring", "params": {"n": 8}},
                    a0=0.5,
                )
            )
        with pytest.raises(ValueError, match="does not support the 'delay' knob"):
            run_scenario(
                ScenarioSpec(
                    algorithm="synchronizer-battery",
                    topology={"kind": "biring", "params": {"n": 6}},
                    delay={"kind": "constant", "params": {"value": 1.0}},
                )
            )
        with pytest.raises(ValueError, match="does not support the 'fifo' knob"):
            run_scenario(
                ScenarioSpec(
                    algorithm="lossy-channel", fifo=True, params={"p": 0.5, "messages": 10}
                )
            )

    def test_election_overrides_still_accept_runtime_objects(self):
        """The historical ``election_overrides={'delay': <object>}`` contract
        of e1/e3 must survive the declarative refactor."""
        from repro.experiments import e1_message_complexity

        result = e1_message_complexity.run(
            sizes=(6, 8),
            trials=2,
            base_seed=1,
            election_overrides={"delay": ExponentialDelay(mean=2.0)},
        )
        assert len(result.table()) == 2
        spec = election_spec(8, 2, 1, delay=ExponentialDelay(mean=2.0))
        assert spec.delay is None and "delay" in spec.params
        assert run_scenario(spec) == direct_elections(8, 2, 1, delay=ExponentialDelay(mean=2.0))


class TestExampleSpecs:
    def test_gallery_exists(self):
        assert EXAMPLES_DIR.is_dir()
        assert len(list(EXAMPLES_DIR.glob("*.json"))) >= 4

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES_DIR.glob("*.json")), ids=lambda p: p.name
    )
    def test_example_loads_and_runs_reduced(self, path):
        spec = load_spec(path)
        if isinstance(spec, StudySpec):
            points = [point.replace(trials=1) for point in spec.points]
            per_point = run_study(
                StudySpec(name=spec.name, metric=spec.metric, points=tuple(points))
            )
            assert len(per_point) == len(points)
            rendered = render_scenario(points[0], per_point[0])
        else:
            results = run_scenario(spec.replace(trials=1))
            assert len(results) == 1
            rendered = render_scenario(spec, results)
        assert "scenario:" in rendered


class TestScenarioCli:
    def test_scenario_subcommand_runs_spec_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "tiny.json"
        path.write_text(
            json.dumps(
                {
                    "algorithm": "abe-election",
                    "topology": {"kind": "uniring", "params": {"n": 8}},
                    "seed": 3,
                    "trials": 2,
                    "label": "tiny",
                }
            )
        )
        assert main(["scenario", str(path)]) == 0
        output = capsys.readouterr().out
        assert "abe-election" in output
        assert "aggregates" in output

    def test_scenario_subcommand_rejects_bad_spec(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "paxos"}))
        with pytest.raises(SystemExit, match="known algorithms"):
            main(["scenario", str(path)])

    def test_scenario_subcommand_rejects_bad_json(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["scenario", str(path)])

    def test_list_mentions_scenario_algorithms(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "echo-wave" in output and "uniring" in output

    def test_aggregates_skip_identifier_columns(self):
        spec = ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 8}}, seed=3, trials=3, label="agg"
        )
        rendered = render_scenario(spec, run_scenario(spec))
        assert "messages_total: mean=" in rendered
        assert "seed: mean=" not in rendered
        assert "leader_uid: mean=" not in rendered
