"""Tests for the experiment framework: tables, runner, reporting, workloads."""

from __future__ import annotations

import pytest

from repro.experiments.runner import mean_of_attribute, monte_carlo, trial_seeds
from repro.experiments.workloads import (
    DEFAULT_RING_SIZES,
    delay_families_with_mean,
    election_spec,
)
from repro.report import (
    ExperimentResult,
    ResultTable,
    format_cell,
    format_table,
    render_experiment,
)
from repro.scenarios import StudySpec, run_scenario, run_study


class TestResultTable:
    def test_add_row_and_column_access(self):
        table = ResultTable(title="t", columns=["n", "cost"])
        table.add_row(n=8, cost=1.5)
        table.add_row(n=16, cost=3.0)
        assert table.column("n") == [8, 16]
        assert len(table) == 2
        assert list(table)[0]["cost"] == 1.5

    def test_unknown_column_rejected(self):
        table = ResultTable(title="t", columns=["n"])
        with pytest.raises(ValueError):
            table.add_row(n=8, oops=1)

    def test_missing_column_lookup_rejected(self):
        table = ResultTable(title="t", columns=["n"])
        with pytest.raises(KeyError):
            table.column("cost")

    def test_notes(self):
        table = ResultTable(title="t", columns=["n"])
        table.add_note("hello")
        assert "hello" in format_table(table)


class TestExperimentResult:
    def _result(self):
        table = ResultTable(title="main", columns=["x"])
        table.add_row(x=1)
        return ExperimentResult(
            experiment_id="eX",
            title="demo",
            claim="a claim",
            tables=[table],
            findings={"ok": True, "value": 3.14},
            parameters={"n": 8},
        )

    def test_table_lookup(self):
        result = self._result()
        assert result.table().title == "main"
        assert result.table("main").title == "main"
        with pytest.raises(KeyError):
            result.table("other")

    def test_empty_tables_rejected_on_access(self):
        result = ExperimentResult(experiment_id="e", title="t", claim="c")
        with pytest.raises(ValueError):
            result.table()

    def test_finding_access(self):
        result = self._result()
        assert result.finding("ok") is True
        with pytest.raises(KeyError):
            result.finding("missing")

    def test_render_experiment_includes_everything(self):
        text = render_experiment(self._result())
        assert "EX" in text
        assert "a claim" in text
        assert "findings:" in text
        assert "parameters:" in text


class TestReportingFormat:
    def test_format_cell_variants(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(None) == "-"
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(123456.0) == "1.235e+05"
        assert format_cell(0.00001) == "1.000e-05"
        assert format_cell("text") == "text"

    def test_format_table_alignment(self):
        table = ResultTable(title="widths", columns=["algorithm", "n"])
        table.add_row(algorithm="abe-election", n=8)
        text = format_table(table)
        lines = text.splitlines()
        assert lines[0] == "widths"
        assert "algorithm" in lines[2]
        assert "abe-election" in lines[-1]


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        seeds = trial_seeds(42, 10)
        assert seeds == trial_seeds(42, 10)
        assert len(set(seeds)) == 10

    def test_label_separates_families(self):
        assert trial_seeds(42, 3, label="a") != trial_seeds(42, 3, label="b")

    def test_prefix_stability_when_adding_trials(self):
        assert trial_seeds(42, 3) == trial_seeds(42, 5)[:3]

    def test_validation(self):
        with pytest.raises(ValueError):
            trial_seeds(42, 0)

    def test_monte_carlo_collects_and_filters(self):
        outcomes = monte_carlo(lambda seed: seed % 3, trials=9, base_seed=1)
        assert len(outcomes) == 9
        filtered = monte_carlo(
            lambda seed: seed % 3, trials=9, base_seed=1, keep=lambda v: v == 0
        )
        assert all(v == 0 for v in filtered)

    def test_mean_of_attribute(self):
        class Point:
            def __init__(self, value):
                self.value = value

        assert mean_of_attribute([Point(1.0), Point(3.0)], "value") == 2.0
        assert mean_of_attribute([Point(1.0), Point(None)], "value") == 1.0
        with pytest.raises(ValueError):
            mean_of_attribute([Point(None)], "value")


class TestWorkloads:
    def test_default_sizes_are_increasing(self):
        assert list(DEFAULT_RING_SIZES) == sorted(DEFAULT_RING_SIZES)

    def test_delay_families_share_the_mean(self):
        for mean_value in (0.5, 1.0, 2.0):
            for name, delay in delay_families_with_mean(mean_value).items():
                assert delay.mean() == pytest.approx(mean_value, rel=1e-6), name

    def test_delay_families_validation(self):
        with pytest.raises(ValueError):
            delay_families_with_mean(0.0)

    def test_election_spec_runs_requested_number(self):
        results = run_scenario(election_spec(8, trials=4, base_seed=3))
        assert len(results) == 4
        assert all(r.n == 8 for r in results)
        assert all(r.elected for r in results)

    def test_election_study_runs_every_size(self):
        study = StudySpec(name="sizes", points=tuple(election_spec(n, 2, 3) for n in (4, 8)))
        sweep = dict(zip((4, 8), run_study(study)))
        assert all(r.n == n for n, results in sweep.items() for r in results)
        assert all(len(v) == 2 for v in sweep.values())
