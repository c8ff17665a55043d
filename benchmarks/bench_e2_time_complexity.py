"""Benchmark / regeneration of experiment E2 (time complexity is linear)."""

from __future__ import annotations

from repro.experiments import e2_time_complexity


def test_bench_e2_time_complexity(experiment_runner):
    result = experiment_runner(
        lambda: e2_time_complexity.run(sizes=(8, 16, 32, 64, 96), trials=15, base_seed=22)
    )
    assert result.finding("all_runs_elected"), "every trial must elect a leader"
    # Linear time: time per node stays bounded across the sweep and the 95%
    # CI of the log-log time slope holds 1.
    assert result.finding("per_node_spread") < 3.0
    assert result.finding("time_slope_ci_holds_1")
