"""The study service: submission, dedupe, warm-store re-runs, serve CLI.

The service's contract is "zero redundant compute": a study re-submitted in
the same process is deduplicated by study fingerprint, and a study re-run
against a warm :class:`~repro.store.ResultStore` -- new process, new service
-- satisfies every trial from the store and exports a ``points`` block that
is byte-identical to the cold run's.  The CLI tests drive ``abe-repro
serve`` end to end through :func:`repro.cli.main`, twice against the same
store, and assert exactly that.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import StudySpec
from repro.store import ResultStore
from repro.store.service import StudyService, study_from_spec


def small_study(trials: int = 2, seed: int = 5, name: str = "svc") -> StudySpec:
    points = tuple(
        ScenarioSpec(
            algorithm="abe-election",
            topology={"kind": "uniring", "params": {"n": n}},
            trials=trials,
            seed=seed,
            label=f"n{n}",
        )
        for n in (4, 5)
    )
    return StudySpec(name=name, points=points)


from repro.network.delays import ExponentialDelay


class AddressDelay(ExponentialDelay):
    """A runnable delay model whose repr carries a memory address, so the
    spec refuses a fingerprint and the job runs anonymously, unjournaled."""

    __repr__ = object.__repr__


class TestStudyFromSpec:
    def test_scenario_lifts_to_one_point_study(self):
        spec = ScenarioSpec(algorithm="abe-election", label="solo")
        study = study_from_spec(spec)
        assert isinstance(study, StudySpec)
        assert study.name == "solo"
        assert study.points == (spec,)
        assert study_from_spec(study) is study

    def test_other_objects_are_rejected(self):
        with pytest.raises(TypeError):
            study_from_spec({"algorithm": "abe-election"})


class TestStudyService:
    def test_submit_run_export(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite") as store:
            with StudyService(store) as service:
                job_id, disposition = service.submit(small_study(), source="test")
                assert disposition == "queued"
                reports = service.run_pending()
            assert [r.job_id for r in reports] == [job_id]
            report = reports[0]
            assert report.status == "completed"
            assert report.trials_executed == 4  # 2 points x 2 trials
            assert report.hits == 0 and report.lookups == 4
            assert len(store) == 4  # every trial landed in the store
            path = service.export(report, tmp_path / "out")
            assert os.path.basename(path) == f"{job_id}.json"
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            assert doc["cache"] == {
                "lookups": 4,
                "hits": 0,
                "misses": 4,
                "hit_rate": 0.0,
                "trials_executed": 4,
            }
            assert [point["label"] for point in doc["points"]] == ["n4", "n5"]
            summary = doc["points"][0]["summary"]
            assert summary["trials"] == 2 and summary["failures"] == 0
            assert "elected" not in summary["metrics"].get("seed", {})

    def test_in_process_duplicates_are_not_re_executed(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite") as store:
            with StudyService(store) as service:
                job_id, first = service.submit(small_study())
                _, coalesced = service.submit(small_study())  # still queued
                assert (first, coalesced) == ("queued", "duplicate")
                reports = service.run_pending()
                assert len(reports) == 1  # coalesced, not run twice
                # Re-submitting after completion serves the cached report.
                dup_id, disposition = service.submit(small_study())
                assert (dup_id, disposition) == (job_id, "duplicate")
                (dup,) = service.run_pending()
                assert dup.status == "duplicate"
                assert dup.duplicate_of == job_id
                assert dup.points is reports[0].points  # original results reused

    def test_warm_store_run_is_pure_cache(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store, StudyService(store) as service:
            service.submit(small_study())
            (cold,) = service.run_pending()
        # A new process: new store handle, new service, same sqlite file.
        with ResultStore(path) as store, StudyService(store) as service:
            service.submit(small_study())
            (warm,) = service.run_pending()
        assert warm.trials_executed == 0  # zero trial compute
        assert warm.hits == warm.lookups == 4
        cold_points = json.dumps([p.identity_dict() for p in cold.points], sort_keys=True)
        warm_points = json.dumps([p.identity_dict() for p in warm.points], sort_keys=True)
        assert cold_points == warm_points  # byte-identical aggregates

    def test_unfingerprintable_spec_runs_anonymously_unjournaled(self, tmp_path):
        spec = ScenarioSpec(
            algorithm="abe-election",
            topology={"kind": "uniring", "params": {"n": 4}},
            trials=2,
            params={"delay": AddressDelay(mean=1.0)},
        )
        with ResultStore(tmp_path / "store.sqlite") as store:
            with StudyService(store) as service:
                job_id, disposition = service.submit(spec)
                assert (job_id, disposition) == ("anon-1", "queued")
                (report,) = service.run_pending()
            assert report.fingerprint is None
            assert report.points[0].fingerprint is None
            assert report.lookups == 0  # the store was never consulted
            assert report.trials_executed == 2  # everything returned was computed
            assert len(store) == 0  # nothing cached under a per-process key


class TestServeCLI:
    def _write_spec(self, path, **kwargs):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(small_study(**kwargs).to_dict(), handle)

    def test_serve_twice_warm_run_is_byte_identical(self, tmp_path, capsys):
        spec_path = tmp_path / "study.json"
        self._write_spec(spec_path)
        store = tmp_path / "store.sqlite"

        def serve(export):
            code = main(
                ["serve", str(spec_path), "--store", str(store), "--export", str(export)]
            )
            assert code == 0
            captured = capsys.readouterr()
            (export_file,) = [
                name for name in os.listdir(export) if name.endswith(".json")
            ]
            with open(os.path.join(str(export), export_file), "r", encoding="utf-8") as handle:
                return json.load(handle), captured

        cold, cold_io = serve(tmp_path / "cold")
        warm, warm_io = serve(tmp_path / "warm")
        assert cold["cache"]["misses"] == 4 and cold["cache"]["trials_executed"] == 4
        assert warm["cache"]["misses"] == 0 and warm["cache"]["trials_executed"] == 0
        assert warm["cache"]["hits"] == 4
        # The deterministic block survives the cold->warm transition byte
        # for byte; cache/timing live outside it.
        assert json.dumps(cold["points"], sort_keys=True) == json.dumps(
            warm["points"], sort_keys=True
        )
        assert "cache: 4/4 hit(s), 0 trial(s) executed" in warm_io.out
        assert "exported:" in warm_io.out

    def test_serve_watch_once_processes_backlog(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        spool.mkdir()
        self._write_spec(spool / "job.json")
        (spool / "notes.txt").write_text("ignored: not a .json spec\n")
        code = main(
            [
                "serve",
                "--store",
                str(tmp_path / "store.sqlite"),
                "--watch",
                str(spool),
                "--once",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "job " in out and "[completed]" in out

    def test_serve_requires_jobs_or_watch(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--store", str(tmp_path / "store.sqlite")])

    def test_serve_reports_unreadable_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["serve", str(bad), "--store", str(tmp_path / "store.sqlite")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_migrate_is_not_a_subcommand(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        journal.write_text('{"key": "k", "result": {"m": 1.0}, "seed": 1}\n')
        store = tmp_path / "store.sqlite"
        with pytest.raises(SystemExit) as info:
            main(["migrate", str(journal), "--store", str(store)])
        assert info.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err
        assert not store.exists()

    def test_serve_refuses_a_jsonl_journal_as_store(self, tmp_path, capsys):
        spec_path = tmp_path / "study.json"
        self._write_spec(spec_path)
        journal = tmp_path / "old.jsonl"
        journal.write_text('{"key": "k", "result": {"m": 1.0}, "seed": 1}\n')
        before = journal.read_bytes()
        with pytest.raises(SystemExit, match="JSONL checkpoint journal"):
            main(["serve", str(spec_path), "--store", str(journal)])
        assert journal.read_bytes() == before

    def test_optimize_refuses_a_non_sqlite_store(self, tmp_path):
        garbage = tmp_path / "notes.txt"
        garbage.write_text("operator notes, not a database\n")
        with pytest.raises(SystemExit, match="is not a sqlite result store"):
            main(
                [
                    "optimize",
                    "examples/dse/tiny_random_search.json",
                    "--out",
                    str(tmp_path / "out"),
                    "--store",
                    str(garbage),
                ]
            )


class TestNamedOneShotMetrics:
    """A one-shot measurement returns named fields, so its point summary,
    the served metric column and the scenario table can all find them."""

    PROBABILITIES = (0.5, 0.9)

    def test_served_e4_summary_carries_the_study_metric(self, tmp_path):
        from repro.experiments import e4_retransmission
        from repro.report import render_scenario

        study = e4_retransmission.build_study(probabilities=self.PROBABILITIES, messages=2000)
        with ResultStore(tmp_path / "e4.sqlite") as store:
            with StudyService(store) as service:
                service.submit(study)
                (report,) = service.run_pending()
        table = e4_retransmission.run(probabilities=self.PROBABILITIES, messages=2000).table()
        assert study.metric == "closed_form_mean_delay"
        for point, expected in zip(report.points, table.column("closed_form_mean_delay")):
            metrics = point.summary["metrics"]
            assert sorted(metrics) == [
                "closed_form_mean_delay",
                "mechanistic_mean_attempts",
                "tail_measured",
            ]
            assert metrics["closed_form_mean_delay"]["mean"] == expected
        rendered = render_scenario(study.points[0], report.points[0].results)
        assert "closed_form_mean_delay" in rendered and "value_0" not in rendered


class TestOneShotPointsUnderThePolicy:
    """One-shot points (the E4/E5 shape) run through the executor's ``map``,
    so ``--retries`` covers them exactly like Monte-Carlo trials."""

    def _study(self):
        from repro.experiments import e4_retransmission

        return e4_retransmission.build_study(probabilities=(0.3, 0.5), messages=400)

    def _serve(self, path, policy=None):
        with ResultStore(path) as store:
            with StudyService(store, policy=policy) as service:
                service.submit(self._study())
                (report,) = service.run_pending()
            return report, len(store)

    def _flaky(self, monkeypatch, failing_calls):
        from repro.scenarios.algorithms import LossyChannelTrial

        original = LossyChannelTrial.__call__
        calls = []

        def flaky(trial, seed):
            calls.append(seed)
            if len(calls) <= failing_calls:
                raise RuntimeError("transient channel failure")
            return original(trial, seed)

        monkeypatch.setattr(LossyChannelTrial, "__call__", flaky)
        return calls

    def test_retried_point_exports_the_unfailed_points(self, tmp_path, monkeypatch):
        from repro.experiments.resilience import ExecutionPolicy

        clean, _ = self._serve(tmp_path / "clean.sqlite")
        calls = self._flaky(monkeypatch, failing_calls=1)
        policy = ExecutionPolicy(retries=1)
        report, stored = self._serve(tmp_path / "flaky.sqlite", policy)
        assert len(calls) == 3  # two points plus one retry
        assert policy.failures == []
        assert [p.identity_dict() for p in report.points] == [
            p.identity_dict() for p in clean.points
        ]
        assert [p.results for p in report.points] == [p.results for p in clean.points]
        assert stored == 2

    def test_exhausted_retries_show_as_a_point_failure(self, tmp_path, monkeypatch):
        from repro.experiments.resilience import ExecutionPolicy, TrialFailure

        self._flaky(monkeypatch, failing_calls=2)
        policy = ExecutionPolicy(retries=1)
        report, stored = self._serve(tmp_path / "flaky.sqlite", policy)
        assert report.status == "completed"
        first, second = report.points
        assert first.summary["failures"] == 1 and first.summary["trials"] == 1
        assert isinstance(first.results[0], TrialFailure)
        assert first.results[0].attempts == 2
        assert second.summary["failures"] == 0
        assert len(policy.failures) == 1
        assert stored == 1  # the failure is not cached: a re-run re-attempts it
