"""Tests for the declarative churn layer and the adversarial delay kinds.

Round-trips the ``churn`` SpecNode through JSON, checks that churn is
strictly opt-in (``churn=None`` specs serialize exactly as before, so every
pre-existing fingerprint and golden is untouched), and verifies the
serial-vs-parallel bit-identity contract extends to churn trials.
"""

from __future__ import annotations

import json

import pytest

from repro.core.churn_election import ChurnElectionResult
from repro.experiments import ALL_EXPERIMENTS
from repro.store import spec_fingerprint
from repro.network.adversary import MaxDelayAdversary, TargetedSlowdownAdversary
from repro.network.churn import CrashEvent, FaultScript, PeriodicChurn
from repro.scenarios.registry import CHURN, CHURN_EVENTS, DELAYS, build_churn, build_delay
from repro.scenarios.runtime import run_scenario
from repro.scenarios.spec import ScenarioSpec, SpecNode, spec_from_dict


def churn_spec(n=6, trials=3, seed=5, churn=None, **kwargs):
    return ScenarioSpec(
        algorithm="abe-election",
        topology=SpecNode("uniring", {"n": n}),
        seed=seed,
        trials=trials,
        label="churn-test",
        churn=churn,
        **kwargs,
    )


SCRIPT_NODE = SpecNode(
    "script",
    {
        "events": [
            {"kind": "crash", "params": {"node": "leader", "time": 40.0, "downtime": 40.0}},
            {"kind": "link-down", "params": {"channel": 1, "time": 10.0, "duration": 5.0}},
        ]
    },
)


class TestChurnRegistry:
    def test_registered_kinds(self):
        assert set(CHURN.known()) >= {"script", "periodic"}
        assert set(CHURN_EVENTS.known()) >= {
            "crash",
            "recover",
            "link-down",
            "link-up",
            "periodic",
        }

    def test_build_churn_none_passthrough(self):
        assert build_churn(None) is None

    def test_build_script(self):
        script = build_churn(SCRIPT_NODE)
        assert isinstance(script, FaultScript)
        assert isinstance(script.events[0], CrashEvent)
        assert script.events[0].node == "leader"
        assert script.eventually_quiescent

    def test_build_periodic_shorthand(self):
        script = build_churn(
            SpecNode(
                "periodic",
                {"interval": 30.0, "count": 2, "downtime": 10.0, "target": "leader"},
            )
        )
        assert isinstance(script, FaultScript)
        (process,) = script.events
        assert isinstance(process, PeriodicChurn)

    def test_unknown_kinds_fail_fast(self):
        with pytest.raises(ValueError, match="known"):
            build_churn(SpecNode("quake", {}))
        with pytest.raises(ValueError, match="known"):
            build_churn(SpecNode("script", {"events": [{"kind": "meteor", "params": {}}]}))


class TestChurnSpecSerialization:
    def test_round_trip_through_json(self):
        spec = churn_spec(churn=SCRIPT_NODE)
        restored = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.churn == SCRIPT_NODE

    def test_churn_none_is_strictly_opt_in(self):
        # No "churn" key in the serialized form -- pre-existing fingerprints
        # (and the 17 goldens keyed by them) are untouched.
        spec = churn_spec(churn=None)
        assert "churn" not in spec.to_dict()

    def test_churn_changes_the_fingerprint(self):
        plain = churn_spec(churn=None)
        churned = churn_spec(churn=SCRIPT_NODE)
        assert spec_fingerprint(plain) != spec_fingerprint(churned)


class TestChurnTrialExecution:
    def test_serial_and_parallel_runs_are_bit_identical(self):
        spec = churn_spec(n=6, trials=4, churn=SCRIPT_NODE)
        serial = run_scenario(spec)
        parallel = run_scenario(spec, workers=4)
        assert serial == parallel
        assert all(isinstance(r, ChurnElectionResult) for r in serial)
        assert all(r.elected for r in serial)

    def test_vector_core_rejected(self):
        spec = churn_spec(churn=SCRIPT_NODE, core="vector")
        with pytest.raises(ValueError, match="per-node object core"):
            run_scenario(spec)

    def test_crash_faults_rejected_alongside_churn(self):
        spec = churn_spec(
            churn=SCRIPT_NODE,
            faults=[SpecNode("crash", {"node_uid": 2, "crash_time": 5.0})],
        )
        with pytest.raises(ValueError, match="churn"):
            run_scenario(spec)

    def test_non_election_algorithms_reject_churn(self):
        spec = ScenarioSpec(
            algorithm="echo-wave",
            topology=SpecNode("star", {"n": 6}),
            seed=1,
            trials=1,
            churn=SCRIPT_NODE,
        )
        with pytest.raises(ValueError):
            run_scenario(spec)


class TestAdversarialDelayKinds:
    def test_registered_and_buildable(self):
        assert "max-adversary" in DELAYS
        assert "targeted-slowdown" in DELAYS
        adversary = build_delay(
            SpecNode(
                "max-adversary",
                {"base": {"kind": "uniform", "params": {"low": 0.5, "high": 1.5}}},
            )
        )
        assert isinstance(adversary, MaxDelayAdversary)
        targeted = build_delay(
            SpecNode(
                "targeted-slowdown",
                {
                    "base": {"kind": "exponential", "params": {"mean": 1.0}},
                    "victim": 3,
                    "slowdown": 5.0,
                },
            )
        )
        assert isinstance(targeted, TargetedSlowdownAdversary)

    def test_adversary_spec_round_trips(self):
        spec = churn_spec(
            delay=SpecNode(
                "targeted-slowdown",
                {
                    "base": {"kind": "exponential", "params": {"mean": 1.0}},
                    "victim": 0,
                },
            )
        )
        restored = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_adversary_delay_runs_an_election(self):
        spec = churn_spec(
            n=6,
            trials=2,
            delay=SpecNode(
                "max-adversary",
                {"base": {"kind": "uniform", "params": {"low": 0.5, "high": 1.5}}},
            ),
        )
        results = run_scenario(spec)
        assert all(r.elected for r in results)


class TestExperimentRegistration:
    def test_e9_registered_with_study(self):
        assert "e9" in ALL_EXPERIMENTS
        study = ALL_EXPERIMENTS["e9"].build_study(
            sizes=(6,), intervals=(50.0,), trials=2
        )
        assert study.metric == "time_to_restabilize"
        assert all(point.churn is not None for point in study.points)
