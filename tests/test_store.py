"""The persistent result store: fingerprints, version gating, O(N) appends.

Four properties under test, each of which PR 6's journal got wrong or
lacked:

* **Canonical fingerprints** -- ``spec_fingerprint`` must hash dataclass
  overrides field by field (a ``repr=False`` field must still distinguish
  two specs) and must *refuse* a key (return ``None``) for values whose only
  repr carries a memory address: such a key differs per process, so resume
  could never hit and the cache silently degrades to dead weight.
* **Code-version gating** -- entries recorded under a different
  ``code_version`` are ignored (with a stderr note) so a behaviour-changing
  upgrade forces re-runs instead of mixing stale results into aggregates;
  ``allow_stale`` is the explicit escape hatch.
* **True O(N) journaling** -- ``record``/``record_many`` append exactly the
  new lines (no whole-file rewrite), so journaling N trials writes O(N)
  total bytes.
* **Load robustness + migration** -- torn tails, duplicate ``(key, seed)``
  lines and foreign lines mid-file are tolerated line by line, and a JSONL
  journal migrated into sqlite resumes byte-identically.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import pytest

import repro.store.fingerprint as fingerprint_module
from repro.experiments.resilience import CheckpointJournal
from repro.experiments.runner import monte_carlo, trial_seeds
from repro.experiments.workloads import ElectionTrial
from repro.network.delays import ExponentialDelay
from repro.scenarios import ScenarioSpec, run_scenario
from repro.store import (
    JsonlResultStore,
    ResultStore,
    code_version,
    migrate_journal,
    spec_fingerprint,
    study_fingerprint,
)
from repro.scenarios.spec import StudySpec


@dataclass(frozen=True)
class Knob:
    """An override whose distinguishing field is hidden from its repr."""

    visible: int
    hidden: float = field(repr=False, default=0.0)


class Opaque:
    """Default object repr: ``<Opaque object at 0x...>`` -- per-process."""


class AddressDelay(ExponentialDelay):
    """A perfectly runnable delay model with an address-bearing repr."""

    __repr__ = object.__repr__


# ================================================================ fingerprints


class TestSpecFingerprint:
    def test_repr_false_dataclass_fields_still_distinguish_specs(self):
        # Under the old ``default=repr`` canonicalization both specs hashed
        # the same string "Knob(visible=1)" -- one key for two workloads, a
        # wrong cache hit waiting to happen.
        one = ScenarioSpec(params={"knob": Knob(1, hidden=0.25)})
        two = ScenarioSpec(params={"knob": Knob(1, hidden=0.75)})
        assert spec_fingerprint(one) != spec_fingerprint(two)
        assert spec_fingerprint(one) == spec_fingerprint(
            ScenarioSpec(params={"knob": Knob(1, hidden=0.25)})
        )

    def test_address_bearing_repr_refuses_a_key(self):
        # Under the old canonicalization this produced a *different* key in
        # every process; refusing means "skip journaling", never wrong.
        spec = ScenarioSpec(params={"obj": Opaque()})
        assert spec_fingerprint(spec) is None

    def test_stable_reprs_still_fingerprint(self):
        spec = ScenarioSpec(
            params={"election_overrides": {"delay": ExponentialDelay(mean=2.0)}}
        )
        assert spec_fingerprint(spec) is not None
        assert spec_fingerprint(spec) == spec_fingerprint(spec)

    def test_run_scenario_skips_journaling_for_refused_fingerprint(self, tmp_path):
        spec = ScenarioSpec(
            topology={"kind": "uniring", "params": {"n": 4}},
            trials=2,
            params={"delay": AddressDelay(mean=1.0)},
        )
        assert spec_fingerprint(spec) is None
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        results = run_scenario(spec, checkpoint=journal)
        assert len(results) == 2  # the scenario still runs...
        assert len(journal) == 0  # ...but nothing is cached under a bad key

    def test_study_fingerprint_keys_metric_and_points(self):
        points = (ScenarioSpec(trials=2, label="a"), ScenarioSpec(trials=3, label="b"))
        base = StudySpec(name="s", points=points)
        assert study_fingerprint(base) == study_fingerprint(
            StudySpec(name="renamed", title="presentation only", points=points)
        )
        assert study_fingerprint(base) != study_fingerprint(
            StudySpec(name="s", points=points, metric="election_time")
        )
        refused = StudySpec(
            name="s", points=(ScenarioSpec(params={"obj": Opaque()}),)
        )
        assert study_fingerprint(refused) is None


class TestCodeVersion:
    def test_stamp_carries_package_version_and_golden_hash(self):
        import repro

        stamp = code_version()
        assert stamp.startswith(repro.__version__)
        assert "+g" in stamp  # the goldens content hash
        assert stamp == code_version()

    def test_golden_re_record_bumps_the_stamp(self, monkeypatch):
        import repro

        monkeypatch.setattr(fingerprint_module, "_CODE_VERSION", None)
        monkeypatch.setattr(fingerprint_module, "_goldens_digest", lambda: "cafe12345678")
        assert fingerprint_module.code_version() == f"{repro.__version__}+gcafe12345678"


# ============================================================= version gating


@pytest.mark.parametrize("filename", ["journal.jsonl", "store.sqlite"])
class TestVersionGating:
    def test_version_bump_forces_reruns(self, tmp_path, monkeypatch, capsys, filename):
        path = tmp_path / filename
        journal = CheckpointJournal(path)
        journal.record("key", 1, {"metric": 1.5})
        assert journal.lookup("key", [1]) == {1: {"metric": 1.5}}

        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        upgraded = CheckpointJournal(path, resume=True)
        capsys.readouterr()  # drop load-time output; the note is checked below
        assert upgraded.lookup("key", [1]) == {}  # stale entry ignored -> re-run
        assert ("key", 1) not in upgraded
        assert upgraded.stale_ignored == 1

    def test_stale_entries_are_noted_on_stderr(self, tmp_path, monkeypatch, capsys, filename):
        path = tmp_path / filename
        CheckpointJournal(path).record("key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        CheckpointJournal(path, resume=True)
        err = capsys.readouterr().err
        assert "different code version" in err
        assert "--allow-stale-cache" in err

    def test_allow_stale_escape_hatch_serves_old_entries(self, tmp_path, monkeypatch, filename):
        path = tmp_path / filename
        CheckpointJournal(path).record("key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        stale_ok = CheckpointJournal(path, resume=True, allow_stale=True)
        assert stale_ok.lookup("key", [1]) == {1: {"metric": 1.5}}

    def test_rerun_re_records_under_the_current_version(self, tmp_path, monkeypatch, filename):
        path = tmp_path / filename
        CheckpointJournal(path).record("key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        upgraded = CheckpointJournal(path, resume=True)
        assert upgraded.record("key", 1, {"metric": 2.5})  # the forced re-run
        fresh = CheckpointJournal(path, resume=True)
        assert fresh.lookup("key", [1]) == {1: {"metric": 2.5}}


class TestAllowStaleCLIWiring:
    def test_flag_threads_into_the_policy_journal(self, tmp_path):
        from repro.cli import build_parser
        from repro.experiments.runner import execution_policy_from_args

        path = tmp_path / "journal.jsonl"
        args = build_parser().parse_args(
            ["scenario", "spec.json", "--checkpoint", str(path), "--allow-stale-cache"]
        )
        policy = execution_policy_from_args(args)
        assert policy.checkpoint.allow_stale is True
        args = build_parser().parse_args(
            ["scenario", "spec.json", "--checkpoint", str(path)]
        )
        assert execution_policy_from_args(args).checkpoint.allow_stale is False


# ============================================================== append-only IO


class TestAppendOnlyJournal:
    def test_records_never_rewrite_the_file(self, tmp_path, monkeypatch):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")

        def forbid(*args, **kwargs):
            raise AssertionError("record must append, not rewrite the whole file")

        # The PR 6 implementation funnelled every record through a tmp-file
        # rewrite + os.replace; append-only recording never needs either.
        monkeypatch.setattr(os, "replace", forbid)
        deltas = []
        size = 0
        for seed in range(48):
            journal.record("key", seed, {"metric": float(seed)})
            new_size = os.path.getsize(journal.path)
            deltas.append(new_size - size)
            size = new_size
        # O(N) total bytes: the file grew by exactly the appended lines...
        assert journal.bytes_written == size
        # ...and each record's cost is O(1) -- independent of journal length
        # (under the old rewrite scheme the last delta would be ~48x the
        # first's write volume).
        assert max(deltas) <= 2 * min(deltas)

    def test_record_many_appends_one_batch(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        pairs = [(seed, {"metric": float(seed)}) for seed in range(10)]
        assert journal.record_many("key", pairs) == 10
        assert journal.record_many("key", pairs) == 0  # idempotent
        with open(journal.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == 10
        assert all(json.loads(line)["version"] == code_version() for line in lines)

    def test_fresh_start_truncates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record("key", 1, {"metric": 1.0})
        fresh = CheckpointJournal(path)  # resume=False
        assert len(fresh) == 0
        assert os.path.getsize(path) == 0


class TestJournalLoadEdgeCases:
    def _lines(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            return handle.readlines()

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record_many("key", [(1, {"m": 1.0}), (2, {"m": 2.0})])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "key", "seed": 3, "result"')  # crash mid-append
        resumed = CheckpointJournal(path, resume=True)
        assert resumed.lookup("key", [1, 2, 3]) == {1: {"m": 1.0}, 2: {"m": 2.0}}
        assert resumed.backend.skipped_lines == 1

    def test_foreign_line_mid_file_loses_only_itself(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record("key", 1, {"m": 1.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("-- operator scribble, not JSON --\n")
            handle.write(json.dumps({"unrelated": "document"}) + "\n")
        CheckpointJournal(path, resume=True).record("key", 2, {"m": 2.0})
        resumed = CheckpointJournal(path, resume=True)
        # Entries on *both* sides of the damage survive (the PR 6 loader
        # stopped at the first bad line, silently dropping everything after).
        assert resumed.lookup("key", [1, 2]) == {1: {"m": 1.0}, 2: {"m": 2.0}}
        assert resumed.backend.skipped_lines == 2

    def test_duplicate_key_seed_lines_last_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        version = code_version()
        with open(path, "w", encoding="utf-8") as handle:
            for value in (1.0, 2.0, 3.0):
                handle.write(
                    json.dumps(
                        {"key": "key", "seed": 7, "result": {"m": value}, "version": version}
                    )
                    + "\n"
                )
        resumed = CheckpointJournal(path, resume=True)
        assert len(resumed) == 1
        assert resumed.lookup("key", [7]) == {7: {"m": 3.0}}


# ================================================================ sqlite store


class TestResultStore:
    def test_round_trip_and_persistence(self, tmp_path):
        path = tmp_path / "results.sqlite"
        trial = ElectionTrial(6, 0.3, ExponentialDelay(mean=1.0), {})
        result = trial(123)
        with ResultStore(path) as store:
            assert store.record("key", 123, result)
            assert not store.record("key", 123, result)  # idempotent
            assert ("key", 123) in store
        with ResultStore(path) as reopened:  # not fresh: the cache persists
            assert len(reopened) == 1
            assert reopened.lookup("key", [123]) == {123: result}
            assert reopened.lookup("key", [124]) == {}
            assert reopened.hits == 1 and reopened.misses == 1

    def test_fresh_discards_existing_content(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with ResultStore(path) as store:
            store.record("key", 1, {"m": 1.0})
        with ResultStore(path, fresh=True) as fresh:
            assert len(fresh) == 0

    def test_records_a_vector_core_election_won_by_the_last_node(self, tmp_path):
        """The crowning token of node n-1 starts in the vector core's int64
        destination column, so its uid must be converted to a Python int:
        the codec refuses ``numpy.int64``, and ``record_many`` would skip the
        row silently, re-executing the trial on every warm run."""
        from repro.core.runner import run_election

        result = run_election(8, seed=7, core="vector")
        assert result.leader_uid == 7 and type(result.leader_uid) is int
        with ResultStore(tmp_path / "results.sqlite") as store:
            assert store.record_many("vector", [(7, result)]) == 1
            assert store.lookup("vector", [7]) == {7: result}

    def test_checkpoint_journal_dispatches_on_suffix(self, tmp_path):
        assert CheckpointJournal(tmp_path / "a.jsonl").kind == "jsonl"
        assert CheckpointJournal(tmp_path / "b.sqlite").kind == "sqlite"
        assert CheckpointJournal(tmp_path / "c.db").kind == "sqlite"
        assert isinstance(CheckpointJournal(tmp_path / "d.sqlite3").backend, ResultStore)

    def test_monte_carlo_resumes_from_sqlite_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        trial = ElectionTrial(6, 0.3, ExponentialDelay(mean=1.0), {})
        first = monte_carlo(
            trial, trials=4, base_seed=9,
            checkpoint=CheckpointJournal(path), checkpoint_key="point",
        )

        def bomb(seed):
            raise AssertionError("resume must not re-run completed trials")

        resumed = monte_carlo(
            bomb, trials=4, base_seed=9,
            checkpoint=CheckpointJournal(path, resume=True), checkpoint_key="point",
        )
        assert resumed == first


# =================================================================== migration


class TestMigration:
    def test_jsonl_to_sqlite_resumes_byte_identically(self, tmp_path):
        journal_path = tmp_path / "old.jsonl"
        trial = ElectionTrial(6, 0.3, ExponentialDelay(mean=1.0), {})
        first = monte_carlo(
            trial, trials=4, base_seed=9,
            checkpoint=CheckpointJournal(journal_path), checkpoint_key="point",
        )
        with ResultStore(tmp_path / "new.sqlite") as store:
            report = migrate_journal(journal_path, store)
            assert report.migrated == 4 and report.duplicates == 0

            def bomb(seed):
                raise AssertionError("migrated store must satisfy every lookup")

            resumed = monte_carlo(
                bomb, trials=4, base_seed=9, checkpoint=store, checkpoint_key="point"
            )
        assert resumed == first  # bit-identical aggregates through sqlite

    def test_versionless_pr6_lines_migrate_as_unversioned(self, tmp_path, capsys):
        journal_path = tmp_path / "old.jsonl"
        seeds = trial_seeds(9, 2)
        with open(journal_path, "w", encoding="utf-8") as handle:
            for seed in seeds:  # the PR 6 line shape: no "version" field
                handle.write(
                    json.dumps({"key": "point", "seed": seed, "result": {"m": 1.0}}) + "\n"
                )
        store_path = tmp_path / "new.sqlite"
        with ResultStore(store_path) as store:
            report = migrate_journal(journal_path, store)
            assert report.migrated == 2
            assert store.counts_by_version() == {"unversioned": 2}
            # Unversioned entries are visible but never silently served...
            assert store.lookup("point", seeds) == {}
        capsys.readouterr()
        with ResultStore(store_path, allow_stale=True) as store:
            # ...unless the operator opts in.
            assert len(store.lookup("point", seeds)) == 2

    def test_assume_version_promotes_versionless_lines(self, tmp_path):
        journal_path = tmp_path / "old.jsonl"
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": "k", "seed": 1, "result": {"m": 1.0}}) + "\n")
            handle.write("torn line that does not parse\n")
        with ResultStore(tmp_path / "new.sqlite") as store:
            report = migrate_journal(journal_path, store, assume_version=code_version())
            assert report.migrated == 1 and report.skipped_lines == 1
            assert store.lookup("k", [1]) == {1: {"m": 1.0}}  # served as current
