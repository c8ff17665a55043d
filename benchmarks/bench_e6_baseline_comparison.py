"""Benchmark / regeneration of experiment E6 (comparison with baselines)."""

from __future__ import annotations

from repro.experiments import e6_baseline_comparison


def test_bench_e6_baseline_comparison(experiment_runner):
    result = experiment_runner(
        lambda: e6_baseline_comparison.run(sizes=(8, 16, 32, 64), trials=10, base_seed=66)
    )
    # The ABE election is the cheapest algorithm at the largest ring size and
    # every baseline's log-log message slope lies above its slope.
    assert result.finding("abe_cheapest_at_max_n")
    assert result.finding("baselines_steeper_than_abe")
