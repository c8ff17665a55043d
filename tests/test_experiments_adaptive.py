"""Adaptive Monte-Carlo stopping: convergence, bounds and determinism.

The contract under test (see :class:`repro.experiments.runner.AdaptiveStopping`):
trials run in fixed batches whose boundaries depend only on the configuration,
the stopping rule is evaluated only at those boundaries, and the executed
trial set is therefore bit-identical for serial execution and for any worker
count of :class:`~repro.experiments.parallel.SweepPool` -- the property that
lets the experiment suite adopt sequential stopping without giving up
reproducibility.
"""

from __future__ import annotations

import pytest

from repro.core.runner import run_election
from repro.experiments.parallel import SweepPool, fork_available
from repro.experiments.runner import AdaptiveStopping, monte_carlo
from repro.experiments.workloads import election_spec
from repro.scenarios import compile_trial, run_scenario


def _election_run_one(n=12, a0=0.3, **overrides):
    return compile_trial(election_spec(n, 1, 0, a0=a0, **overrides))


class TestStoppingRule:
    def test_loose_tolerance_stops_before_the_budget(self):
        stats = {}
        results = monte_carlo(
            _election_run_one(),
            trials=64,
            base_seed=5,
            adaptive=AdaptiveStopping(ci_tolerance=0.5, min_trials=4, batch_size=4),
            stats_out=stats,
        )
        assert stats["stopped_early"]
        assert stats["trials_executed"] < 64
        assert len(results) == stats["trials_executed"]

    def test_tight_tolerance_runs_to_the_cap(self):
        stats = {}
        monte_carlo(
            _election_run_one(),
            trials=10,
            base_seed=5,
            adaptive=AdaptiveStopping(ci_tolerance=1e-9, min_trials=4, batch_size=4),
            stats_out=stats,
        )
        assert stats["trials_executed"] == 10
        assert not stats["stopped_early"]

    def test_min_trials_always_run(self):
        stats = {}
        monte_carlo(
            _election_run_one(),
            trials=32,
            base_seed=5,
            adaptive=AdaptiveStopping(ci_tolerance=1e6, min_trials=6),
            stats_out=stats,
        )
        # Even an absurdly loose tolerance must not undercut min_trials.
        assert stats["trials_executed"] == 6

    def test_max_trials_overrides_the_budget_argument(self):
        stats = {}
        monte_carlo(
            _election_run_one(),
            trials=64,
            base_seed=5,
            adaptive=AdaptiveStopping(ci_tolerance=1e-9, min_trials=4, max_trials=12),
            stats_out=stats,
        )
        assert stats["trials_executed"] == 12

    def test_adaptive_prefix_matches_the_fixed_seed_list(self):
        """Stopping never perturbs seeds: the adaptive run's results are a
        prefix of the fixed-count run's results."""
        adaptive = monte_carlo(
            _election_run_one(),
            trials=64,
            base_seed=7,
            adaptive=AdaptiveStopping(ci_tolerance=0.5, min_trials=4, batch_size=4),
        )
        fixed = monte_carlo(_election_run_one(), trials=64, base_seed=7)
        assert adaptive == fixed[: len(adaptive)]

    def test_none_metric_values_are_skipped(self):
        # election_time is None for non-elected runs; the rule must not crash
        # on them.  A tiny max_events forces non-elections: 16 events on
        # n = 8 is one short of the cheapest election (n start-ups, one
        # activation, the winner's n deliveries).
        run_one = _election_run_one(8, max_events=16)
        stats = {}
        results = monte_carlo(
            run_one,
            trials=6,
            adaptive=AdaptiveStopping(
                ci_tolerance=0.5, min_trials=4, metric="election_time"
            ),
            base_seed=1,
            stats_out=stats,
        )
        assert all(r.election_time is None for r in results)
        assert stats["trials_executed"] == 6  # no values -> never converges

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveStopping(ci_tolerance=0.0)
        with pytest.raises(ValueError):
            AdaptiveStopping(min_trials=1)
        with pytest.raises(ValueError):
            AdaptiveStopping(min_trials=8, max_trials=4)
        with pytest.raises(ValueError):
            AdaptiveStopping(confidence=1.0)
        with pytest.raises(ValueError):
            AdaptiveStopping(batch_size=0)

    def test_resolved_fills_only_unset_metric(self):
        assert AdaptiveStopping().resolved("election_time").metric == "election_time"
        pinned = AdaptiveStopping(metric="messages_total")
        assert pinned.resolved("election_time").metric == "messages_total"


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestWorkerCountDeterminism:
    """The satellite acceptance: adaptive stopping picks the same trial count
    serially and with 4 workers, and returns bit-identical results."""

    RULE = AdaptiveStopping(ci_tolerance=0.3, min_trials=4, batch_size=4)

    def test_serial_vs_owned_pool(self):
        spec = election_spec(12, 48, 9)
        serial = run_scenario(spec, adaptive=self.RULE)
        parallel = run_scenario(spec, adaptive=self.RULE, workers=4)
        assert serial == parallel
        assert len(serial) < 48  # the rule actually stopped early

    def test_serial_vs_sweep_pool(self):
        spec = election_spec(12, 48, 9)
        serial = run_scenario(spec, adaptive=self.RULE)
        with SweepPool(4) as pool:
            pooled = run_scenario(spec, adaptive=self.RULE, pool=pool)
        assert serial == pooled

    def test_pool_monte_carlo_entry_point(self):
        run_one = _election_run_one()
        serial = monte_carlo(run_one, trials=48, adaptive=self.RULE, base_seed=3)
        with SweepPool(4) as pool:
            parallel = pool.monte_carlo(
                run_one, trials=48, base_seed=3, adaptive=self.RULE
            )
        assert serial == parallel

    def test_each_adaptive_batch_is_one_map_on_the_pool(self):
        rule = AdaptiveStopping(ci_tolerance=1e-9, min_trials=2, batch_size=2)
        batches = []
        with SweepPool(2) as pool:
            pool_map = pool.map
            pool.map = lambda fn, items: batches.append(len(items)) or pool_map(fn, items)
            pool.monte_carlo(_election_run_one(), trials=8, base_seed=3, adaptive=rule)
        assert batches == [2, 2, 2, 2]


class TestExperimentIntegration:
    def test_e1_reduced_with_adaptive_stopping(self):
        from repro.experiments import e1_message_complexity

        rule = AdaptiveStopping(ci_tolerance=0.4, min_trials=4, batch_size=4)
        result = e1_message_complexity.run(
            sizes=(6, 10), trials=24, base_seed=11, adaptive=rule
        )
        executed = result.parameters["trials_executed"]
        assert len(executed) == 2
        assert all(4 <= count <= 24 for count in executed)
        assert result.parameters["ci_tolerance"] == 0.4

    def test_cli_flags_build_the_rule(self, capsys):
        from repro.cli import main

        code = main(
            [
                "experiment",
                "e3",
                "--trials",
                "6",
                "--seed",
                "33",
                "--ci-tol",
                "0.5",
                "--min-trials",
                "4",
                "--max-trials",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E3" in out

    def test_cli_notes_unsupported_experiment(self, capsys):
        from repro.cli import main

        code = main(["experiment", "e4", "--ci-tol", "0.5"])
        assert code == 0
        assert "ignored" in capsys.readouterr().out

    def test_cli_rejects_bounds_without_tolerance(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="require --ci-tol"):
            main(["experiment", "e3", "--max-trials", "6"])
        with pytest.raises(SystemExit, match="require --ci-tol"):
            main(["experiment", "e3", "--min-trials", "4"])

    def test_cli_small_max_trials_clamps_the_default_floor(self, capsys):
        from repro.cli import main

        # --max-trials below the default min_trials of 8 must not traceback:
        # the floor clamps down to the cap.
        code = main(
            ["experiment", "e3", "--trials", "6", "--ci-tol", "0.5", "--max-trials", "4"]
        )
        assert code == 0
        assert "E3" in capsys.readouterr().out

    def test_cli_invalid_adaptive_combination_exits_cleanly(self):
        from repro.cli import main

        # min > max with both explicit: a clean SystemExit, not a traceback.
        with pytest.raises(SystemExit, match="must be >= min_trials"):
            main(
                [
                    "experiment",
                    "e3",
                    "--ci-tol",
                    "0.5",
                    "--min-trials",
                    "8",
                    "--max-trials",
                    "4",
                ]
            )
