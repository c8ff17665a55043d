"""The one report path: result rows, point summaries, verdicts, tables, CSV.

Every printed or exported result goes through :mod:`repro.report`: one
flattener (``result_row``), one summary (``point_summary``, which ``serve``
exports, the DSE optimizer scores and ``abe-repro scenario`` prints), one
table renderer (``format_table``) and one scaling verdict
(``study_scaling_fits`` / ``slope_findings``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dse.report import GroupOutcome, PointOutcome, SearchReport
from repro.experiments.resilience import TrialFailure
from repro.experiments.workloads import election_spec
from repro.report import (
    format_table,
    point_summary,
    render_scenario,
    result_row,
    slope_findings,
    store_rows,
    write_store_csv,
)
from repro.scenarios import run_scenario
from repro.stats.complexity_fit import ScalingSlope
from repro.store import ResultStore


@dataclass
class Inner:
    x: float


@dataclass
class Outer:
    n: int
    flag: bool
    inner: Inner
    values: List[int] = field(default_factory=list)
    note: Optional[str] = None


class TestResultRow:
    def test_flat_dataclass_matches_asdict(self):
        (result,) = run_scenario(election_spec(8, 1, 3))
        row = result_row(result)
        assert row == dataclasses.asdict(result)
        assert list(row) == [f.name for f in dataclasses.fields(result)]

    def test_nested_values_are_converted_and_copied(self):
        result = Outer(n=3, flag=True, inner=Inner(1.5), values=[1, 2])
        row = result_row(result)
        assert row == {"n": 3, "flag": True, "inner": {"x": 1.5}, "values": [1, 2], "note": None}
        assert row["values"] is not result.values

    def test_dicts_are_copied_and_anything_else_kept_whole(self):
        source = {"m": 1.0}
        assert result_row(source) == source and result_row(source) is not source
        assert result_row((1, 2)) == {"result": (1, 2)}


class TestPointSummary:
    def test_numeric_and_boolean_fields_skip_identifiers(self):
        results = run_scenario(election_spec(8, 4, 5))
        summary = point_summary(results)
        messages = [float(r.messages_total) for r in results]
        assert summary["trials"] == 4 and summary["failures"] == 0
        assert summary["metrics"]["messages_total"] == {
            "mean": sum(messages) / 4,
            "min": min(messages),
            "max": max(messages),
        }
        assert summary["metrics"]["elected"] == {"true": 4, "total": 4}
        assert not {"seed", "leader_uid"} & set(summary["metrics"])

    def test_failures_are_counted_not_aggregated_and_batteries_spliced(self):
        failure = TrialFailure(
            seed=1, item="1", attempts=2, kind="error", error_type="E", message="boom"
        )
        battery = [{"m": 1.0, "ok": True}, {"m": 3.0, "ok": False}]
        summary = point_summary([battery, failure])
        assert summary == {
            "trials": 3,
            "failures": 1,
            "metrics": {
                "m": {"mean": 2.0, "min": 1.0, "max": 3.0},
                "ok": {"true": 1, "total": 2},
            },
        }

    def test_scenario_aggregates_print_the_summary(self):
        spec = election_spec(8, 3, 9)
        results = run_scenario(spec)
        rendered = render_scenario(spec, results)
        summary = point_summary(results)
        block = rendered.split("aggregates over all trials:\n", 1)[1].splitlines()
        assert [line.split(":")[0].strip() for line in block] == list(summary["metrics"])
        # One trial prints its row, not a one-row aggregate.
        assert "aggregates" not in render_scenario(spec, results[:1])


class TestSlopeFindings:
    def test_a_fit_states_its_interval_and_whether_it_holds_1(self):
        fit = ScalingSlope(slope=1.2, stderr=0.1, low=1.05, high=1.35)
        assert slope_findings("messages", fit) == {
            "messages_slope": 1.2,
            "messages_slope_ci_low": 1.05,
            "messages_slope_ci_high": 1.35,
            "messages_slope_ci_holds_1": False,
        }

    def test_no_fit_reads_none(self):
        assert set(slope_findings("time", None).values()) == {None}


class TestWinnerTable:
    def test_winner_table_is_a_result_table(self):
        def outcome(label, value):
            return PointOutcome(point={}, label=label, value=value, trials=2)

        report = SearchReport(
            name="s", title="", metric="election_time", goal="min", seed=1, strategy="grid"
        )
        report.groups = [
            GroupOutcome("ring-8", [], outcome("a0=0.1", 12.0), outcome("paper", 16.0)),
            GroupOutcome("ring-16", [], outcome("a0=0.2", float("inf")), outcome("paper", 9.5)),
        ]
        table = report.winner_table()
        assert table.columns == ["group", "winner", "election_time", "baseline", "change"]
        assert table.column("change") == ["-25.0%", None]
        lines = format_table(table).splitlines()
        assert lines[4].split() == ["ring-8", "a0=0.1", "12", "16", "-25.0%"]
        assert lines[5].split() == ["ring-16", "a0=0.2", "-", "9.5", "-"]


class TestStoreCsv:
    def test_rows_hold_identity_then_result_fields(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_many([("k", 2, {"m": 1.5, "rows": [1, 2]}), ("k", 1, Outer(1, True, Inner(0.5)))])
            header, rows = store_rows(store)
            assert write_store_csv(store, str(tmp_path / "s.csv")) == 2
        assert header == [
            "key", "seed", "version", "created_at", "flag", "inner", "m", "n", "note", "rows", "values",
        ]
        assert [row[1] for row in rows] == [1, 2]
        assert rows[0][4:] == [True, '{"x":0.5}', None, 1, None, None, "[]"]
        assert rows[1][4:] == [None, None, 1.5, None, None, "[1,2]", None]
        assert (tmp_path / "s.csv").read_text().splitlines()[0] == ",".join(header)
