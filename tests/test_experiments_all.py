"""Integration tests: every experiment runs end-to-end (with tiny parameters).

The benchmarks exercise the experiments at realistic sizes; here we only check
that each experiment module produces a well-formed :class:`ExperimentResult`
whose key findings hold even at reduced scale (or, where a finding is too
noisy at tiny scale, that it is at least present and of the right type).
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    a1_schedule_ablation,
    a2_purge_ablation,
    e1_message_complexity,
    e2_time_complexity,
    e3_activation_parameter,
    e4_retransmission,
    e5_synchronizer_lower_bound,
    e6_baseline_comparison,
    e7_delay_robustness,
    e8_clock_drift,
)
from repro.report import ExperimentResult, render_experiment


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "a1", "a2",
        }

    def test_every_module_declares_claim_and_title(self):
        for module in ALL_EXPERIMENTS.values():
            assert isinstance(module.TITLE, str) and module.TITLE
            assert isinstance(module.CLAIM, str) and module.CLAIM
            assert callable(module.run)


class TestE1E2Scaling:
    def test_e1_small(self):
        result = e1_message_complexity.run(sizes=(8, 16, 24), trials=6, base_seed=1)
        assert isinstance(result, ExperimentResult)
        assert result.finding("all_runs_elected")
        assert result.finding("max_messages_per_node") < 8.0
        assert len(result.table()) == 3
        assert "E1" in render_experiment(result)

    def test_e2_small(self):
        result = e2_time_complexity.run(sizes=(8, 16, 24), trials=6, base_seed=2)
        assert result.finding("all_runs_elected")
        assert result.finding("max_time_per_node") < 20.0


class TestE3Tradeoff:
    def test_messages_increase_with_a0(self):
        result = e3_activation_parameter.run(
            n=16, multipliers=(0.5, 1.0, 8.0, 64.0), trials=8, base_seed=3
        )
        assert result.finding("messages_increase_with_a0")
        assert result.finding("recommended_a0") < 0.05


class TestE4Retransmission:
    def test_matches_closed_form(self):
        result = e4_retransmission.run(
            probabilities=(0.2, 0.5, 0.8), messages=5000, base_seed=4
        )
        assert result.finding("matches_1_over_p_within_5pct")
        assert result.finding("delay_is_unbounded")
        assert len(result.table()) == 3


class TestE5Theorem1:
    def test_lower_bound_story(self):
        result = e5_synchronizer_lower_bound.run(
            sizes=(8,), rounds=4, base_seed=5, include_random_graph=False
        )
        assert result.finding("sound_synchronizers_meet_theorem1")
        assert result.finding("abd_synchronizer_undercuts_bound")
        # One table row per (synchronizer, delay-model) case.
        assert len(result.table()) == 4


class TestE6Baselines:
    def test_comparison_table_complete(self):
        result = e6_baseline_comparison.run(sizes=(8, 16), trials=4, base_seed=6)
        algorithms = set(result.table().column("algorithm"))
        assert algorithms == {
            "abe-election", "itai-rodeh", "chang-roberts", "dolev-klawe-rodeh", "franklin",
        }
        # A log-log message slope for every algorithm (noisy at n <= 16).
        assert len(result.tables[1]) == 5
        assert None not in result.tables[1].column("messages_slope")


class TestE7E8Robustness:
    def test_e7_families_all_elect(self):
        result = e7_delay_robustness.run(n=16, trials=5, base_seed=7)
        assert result.finding("all_runs_elected")
        assert result.finding("message_spread_across_families") < 5.0

    def test_e8_drift_safe(self):
        result = e8_clock_drift.run(
            n=16, clock_bounds=((1.0, 1.0), (0.5, 2.0)), trials=5, base_seed=8
        )
        assert result.finding("always_elected")
        assert result.finding("always_unique_leader")


class TestAblations:
    def test_a1_constant_schedule_is_slower(self):
        # The gap between the schedules opens with the ring size (the constant
        # schedule's endgame waits scale quadratically), so the check uses
        # n=32 where it is robust even with a modest trial count.
        result = a1_schedule_ablation.run(sizes=(16, 32), trials=12, base_seed=9)
        assert result.finding("constant_schedule_slower")

    def test_a2_paper_variant_is_safe_and_live(self):
        result = a2_purge_ablation.run(sizes=(8,), trials=6, base_seed=10)
        assert result.finding("paper_variant_always_terminates")
        assert result.finding("paper_variant_always_single_leader")
