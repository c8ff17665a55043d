"""Benchmark / regeneration of experiment E1 (message complexity is linear).

Reduced parameters relative to the experiment's default run (fewer trials,
sizes up to 96) so the benchmark suite stays fast; the asserted findings are
the ones the paper's claim rests on.
"""

from __future__ import annotations

from repro.experiments import e1_message_complexity


def test_bench_e1_message_complexity(experiment_runner):
    result = experiment_runner(
        lambda: e1_message_complexity.run(sizes=(8, 16, 32, 64, 96), trials=15, base_seed=11)
    )
    assert result.finding("all_runs_elected"), "every trial must elect a leader"
    # The defining claim: per-node message cost stays bounded as n grows
    # (linear total), and the 95% CI of the log-log message slope holds 1.
    assert result.finding("per_node_spread") < 3.0
    assert result.finding("max_messages_per_node") < 6.0
    assert result.finding("messages_slope_ci_holds_1")
