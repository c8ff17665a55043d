"""The persistent result store: fingerprints, version gating, safe opening.

Three properties under test, each of which the retired JSONL journal got
wrong or lacked:

* **Canonical fingerprints** -- ``spec_fingerprint`` must hash dataclass
  overrides field by field (a ``repr=False`` field must still distinguish
  two specs) and must *refuse* a key (return ``None``) for values whose only
  repr carries a memory address: such a key differs per process, so resume
  could never hit and the cache silently degrades to dead weight.
* **Code-version gating** -- entries recorded under a different
  ``code_version`` are ignored (with a stderr note) so a behaviour-changing
  upgrade forces re-runs instead of mixing stale results into aggregates;
  ``allow_stale`` is the explicit escape hatch.
* **Safe opening** -- a path that is neither empty nor a sqlite database
  (above all an old JSONL journal) is refused with an error naming it, and
  is never deleted, even by a fresh (``--checkpoint`` without ``--resume``)
  open.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field

import pytest

import repro.store.fingerprint as fingerprint_module
from repro.experiments.parallel import SweepPool
from repro.experiments.workloads import election_spec
from repro.network.delays import ExponentialDelay
from repro.scenarios import ScenarioSpec, compile_trial, run_scenario
from repro.store import (
    ResultStore,
    code_version,
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
        with ResultStore(tmp_path / "store.sqlite") as store:
            results = run_scenario(spec, pool=SweepPool(store=store))
            assert len(results) == 2  # the scenario still runs...
            assert len(store) == 0  # ...but nothing is cached under a bad key
            assert store.hits + store.misses == 0  # nor looked up

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


class TestVersionGating:
    def test_version_bump_forces_reruns(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "store.sqlite"
        store = ResultStore(path, fresh=True)
        store.record("key", 1, {"metric": 1.5})
        assert store.lookup("key", [1]) == {1: {"metric": 1.5}}

        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        upgraded = ResultStore(path)
        capsys.readouterr()  # drop load-time output; the note is checked below
        assert upgraded.lookup("key", [1]) == {}  # stale entry ignored -> re-run
        assert ("key", 1) not in upgraded
        assert upgraded.stale_ignored == 1

    def test_stale_entries_are_noted_on_stderr(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "store.sqlite"
        ResultStore(path, fresh=True).record("key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        ResultStore(path)
        err = capsys.readouterr().err
        assert "different code version" in err
        assert "--allow-stale-cache" in err

    def test_allow_stale_escape_hatch_serves_old_entries(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        ResultStore(path, fresh=True).record("key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        stale_ok = ResultStore(path, allow_stale=True)
        assert stale_ok.lookup("key", [1]) == {1: {"metric": 1.5}}

    def test_rerun_re_records_under_the_current_version(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        ResultStore(path, fresh=True).record("key", 1, {"metric": 1.5})
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        upgraded = ResultStore(path)
        assert upgraded.record("key", 1, {"metric": 2.5})  # the forced re-run
        fresh = ResultStore(path)
        assert fresh.lookup("key", [1]) == {1: {"metric": 2.5}}


    def test_counts_by_version_tallies_every_stamp(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        with ResultStore(path, fresh=True) as store:
            store.record_many([("key", 1, {"m": 1.0}), ("key", 2, {"m": 2.0})])
        old = code_version()
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        with ResultStore(path) as upgraded:
            upgraded.record("key", 1, {"m": 3.0})
            assert upgraded.counts_by_version() == {old: 2, "99.0.0+gdeadbeefdead": 1}
            assert len(upgraded) == 1  # current-version rows only

    def test_allow_stale_still_prefers_the_current_row(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        with ResultStore(path, fresh=True) as store:
            store.record_many([("key", 1, {"m": 1.0}), ("key", 2, {"m": 2.0})])
        monkeypatch.setattr(
            fingerprint_module, "code_version", lambda: "99.0.0+gdeadbeefdead"
        )
        with ResultStore(path) as upgraded:
            upgraded.record("key", 1, {"m": 3.0})
        with ResultStore(path, allow_stale=True) as stale_ok:
            assert stale_ok.lookup("key", [1, 2]) == {1: {"m": 3.0}, 2: {"m": 2.0}}
            assert len(stale_ok) == 2  # one per (key, seed), whatever the versions
            assert ("key", 2) in stale_ok


class TestAllowStaleCLIWiring:
    def test_flag_threads_into_the_checkpoint_store(self, tmp_path):
        from repro.cli import build_parser
        from repro.experiments.runner import executor_from_args

        path = tmp_path / "store.sqlite"
        args = build_parser().parse_args(
            ["scenario", "spec.json", "--checkpoint", str(path), "--allow-stale-cache"]
        )
        with executor_from_args(args, 1, None) as pool:
            assert pool.store.allow_stale is True
        args = build_parser().parse_args(
            ["scenario", "spec.json", "--checkpoint", str(path)]
        )
        with executor_from_args(args, 1, None) as pool:
            assert pool.store.allow_stale is False


# ============================================================ opening a path


JOURNAL_LINE = '{"key": "k", "result": {"m": 1.0}, "seed": 1, "version": "1.0.0"}\n'


def truncated_store(tmp_path, share=0.9):
    """A store of 400 padded rows cut to ``share`` of its bytes."""
    path = tmp_path / "cut.sqlite"
    with ResultStore(path, fresh=True) as store:
        store.record_many([("k", seed, {"m": float(seed), "pad": "x" * 200}) for seed in range(400)])
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * share)])
    return path


#: The keys of :func:`damaged_store`, 100 rows each.
DAMAGED_KEYS = ("k0", "k1", "k2", "k3")


def _four_key_store(path):
    with ResultStore(path, fresh=True) as store:
        for key in DAMAGED_KEYS:
            store.record_many(
                [(key, seed, {"m": float(seed), "pad": "x" * 200}) for seed in range(100)]
            )
    return path.read_bytes()


def damaged_store(tmp_path):
    """Four keys of 100 padded rows with the last 1% of the file zeroed.

    The file keeps its whole pages and its schema page, so the store opens;
    the last rows' page is blank, so queries that reach it fail.
    """
    path = tmp_path / "damaged.sqlite"
    data = _four_key_store(path)
    keep = int(len(data) * 0.99)
    path.write_bytes(data[:keep] + bytes(len(data) - keep))
    return path


def cut_store(tmp_path):
    """The same four keys cut to 99% of the file's bytes: a partial page."""
    path = tmp_path / "cut99.sqlite"
    data = _four_key_store(path)
    path.write_bytes(data[: int(len(data) * 0.99)])
    return path


class TestStorePathValidation:
    @pytest.mark.parametrize("fresh", [False, True])
    def test_jsonl_journal_is_refused_and_left_byte_identical(self, tmp_path, fresh):
        journal = tmp_path / "study.jsonl"
        journal.write_text(JOURNAL_LINE * 3)
        before = journal.read_bytes()
        with pytest.raises(ValueError) as info:
            ResultStore(journal, fresh=fresh)
        message = str(info.value)
        assert str(journal) in message and "JSONL checkpoint journal" in message
        assert "\n" not in message and "migrate" not in message
        assert journal.read_bytes() == before  # never removed, never touched

    def test_garbage_file_is_refused_with_its_path(self, tmp_path):
        garbage = tmp_path / "notes.db"
        garbage.write_bytes(b"\x00\x01 not a database at all")
        with pytest.raises(ValueError, match="is not a sqlite result store"):
            ResultStore(garbage, fresh=True)
        assert garbage.read_bytes() == b"\x00\x01 not a database at all"

    def test_empty_file_opens_as_a_new_store(self, tmp_path):
        empty = tmp_path / "empty.sqlite"
        empty.write_bytes(b"")
        with ResultStore(empty) as store:
            assert len(store) == 0
            assert store.record("key", 1, {"m": 1.0})
        with ResultStore(empty) as reopened:
            assert reopened.lookup("key", [1]) == {1: {"m": 1.0}}

    def test_truncated_store_is_refused_with_its_path(self, tmp_path):
        path = truncated_store(tmp_path)
        with pytest.raises(ValueError) as info:
            ResultStore(path)
        message = str(info.value)
        assert str(path) in message and "cannot open the result store" in message
        assert "\n" not in message

    def test_serve_on_a_truncated_store_exits_in_one_line(self, tmp_path):
        path = truncated_store(tmp_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"algorithm": "abe-election", "trials": 1}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", str(spec_path), "--store", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert completed.returncode != 0
        assert "Traceback" not in completed.stderr
        (line,) = completed.stderr.strip().splitlines()
        assert line.startswith(f"{path}: cannot open the result store (")

    def test_a_store_cut_to_a_partial_page_is_refused_at_open(self, tmp_path):
        path = cut_store(tmp_path)
        before = path.read_bytes()
        assert len(before) % 4096  # precondition: the cut leaves a partial page
        with pytest.raises(ValueError) as info:
            ResultStore(path)
        message = str(info.value)
        assert message.startswith(f"{path}: cannot open the result store (")
        assert "not a whole number of 4096-byte pages" in message and "\n" not in message
        assert path.read_bytes() == before

    def test_serve_on_a_store_cut_to_a_partial_page_exits_in_one_line(self, tmp_path):
        path = cut_store(tmp_path)
        before = path.read_bytes()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"algorithm": "abe-election", "trials": 3}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", str(spec_path), "--store", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert completed.returncode != 0
        assert "Traceback" not in completed.stderr
        (line,) = completed.stderr.strip().splitlines()
        assert line.startswith(f"{path}: cannot open the result store (")
        assert path.read_bytes() == before  # nothing served into it, nothing recorded

    def test_a_store_that_opens_fails_its_damaged_queries_in_one_line(self, tmp_path):
        path = damaged_store(tmp_path)
        with ResultStore(path) as store:  # the cut leaves the schema readable
            answered, failed = [], []
            for key in DAMAGED_KEYS:
                try:
                    answered.append(len(store.lookup(key, range(100))))
                except ValueError as error:
                    failed.append(str(error))
            with pytest.raises(ValueError) as info:
                list(store.iter_rows())
        assert failed and set(answered) <= {100}
        for message in failed + [str(info.value)]:
            assert message.startswith(f"{path}: cannot read the result store (")
            assert "\n" not in message

    def test_export_store_on_a_damaged_store_exits_in_one_line(self, tmp_path):
        path = damaged_store(tmp_path)
        previous = tmp_path / "rows.csv"
        previous.write_text("an earlier export\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "export-store", str(path), "--csv", str(previous)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert completed.returncode != 0
        assert "Traceback" not in completed.stderr
        (line,) = completed.stderr.strip().splitlines()
        assert line.startswith(f"{path}: cannot read the result store (")
        assert previous.read_text() == "an earlier export\n"

    @pytest.mark.parametrize("resume", [False, True])
    def test_checkpoint_flag_on_a_journal_exits_in_one_line(self, tmp_path, resume):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"algorithm": "abe-election", "trials": 1}))
        journal = tmp_path / "study.jsonl"
        journal.write_text(JOURNAL_LINE)
        before = journal.read_bytes()
        argv = ["scenario", str(spec_path), "--checkpoint", str(journal)]
        with pytest.raises(SystemExit) as info:
            main(argv + (["--resume"] if resume else []))
        message = str(info.value.code)
        assert "\n" not in message and "JSONL checkpoint journal" in message
        assert "migrate" not in message
        assert journal.read_bytes() == before


# ================================================================ sqlite store


class TestResultStore:
    def test_round_trip_and_persistence(self, tmp_path):
        path = tmp_path / "results.sqlite"
        trial = compile_trial(election_spec(6, 1, 0, a0=0.3))
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
        """The crowned uid must reach the result as a Python int: the codec
        refuses ``numpy.int64``, and ``record_many`` would skip the row
        silently, re-executing the trial on every warm run.  Node ids and
        times enter the vector core's event loop from numpy arrays (the
        sorted start-up spells).  At seed 159 the last node wins, and its
        uid and election time derive from those arrays (the wrap to node 0,
        a Python literal, is not on their path)."""
        from repro.core.runner import run_election

        result = run_election(8, a0=0.3, seed=159, core="vector")
        assert result.leader_uid == 7, "precondition: the seed no longer crowns node n - 1"
        assert type(result.leader_uid) is int
        assert type(result.election_time) is float
        with ResultStore(tmp_path / "results.sqlite") as store:
            assert store.record_many([("vector", 159, result)]) == 1
            assert store.lookup("vector", [159]) == {159: result}

    def test_monte_carlo_resumes_from_sqlite_checkpoint(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        trial = compile_trial(election_spec(6, 1, 0, a0=0.3))
        with ResultStore(path, fresh=True) as store:
            first = SweepPool(store=store).monte_carlo(trial, trials=4, base_seed=9, key="point")

        def bomb(seed):
            raise AssertionError("resume must not re-run completed trials")

        with ResultStore(path) as store:
            resumed = SweepPool(store=store).monte_carlo(bomb, trials=4, base_seed=9, key="point")
        assert resumed == first
