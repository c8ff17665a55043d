"""Resilient execution: supervision, chaos recovery, watchdog, checkpointing.

Three layers under test:

* :func:`repro.experiments.resilience.supervised_map` -- the supervised
  fan-out primitive behind ``SweepPool.map`` must survive SIGKILLed workers,
  hung trials and an unusable pool, and the recovered results must be
  bit-identical to serial execution (trials are pure functions of their
  seeds).
* The divergence watchdog -- ``Simulator.run(raise_on_limit=True)`` raises a
  catchable :class:`~repro.sim.engine.SimulationDiverged` for truncated runs,
  reachable from ``run_election`` and declaratively via ``on_budget``.
* The executor's :class:`~repro.store.ResultStore` -- crash-safe resume must
  skip completed ``(key, seed)`` trials and reproduce aggregates bit for
  bit, including through the ``abe-repro scenario --checkpoint`` CLI.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from dataclasses import dataclass

import pytest

from repro.core.runner import run_election
from repro.experiments.parallel import SweepPool, fork_available
from repro.experiments.resilience import (
    ExecutionPolicy,
    ForkPoolManager,
    TrialFailure,
    supervised_map,
)
from repro.experiments.runner import AdaptiveStopping, monte_carlo, trial_seeds
from repro.experiments.workloads import election_spec
from repro.network.delays import ExponentialDelay
from repro.scenarios import ScenarioSpec, StudySpec, compile_trial, run_scenario, run_study
from repro.sim import SimulationDiverged
from repro.store import (
    ResultStore,
    callable_fingerprint,
    decode_result,
    encode_result,
    spec_fingerprint,
)

VICTIM = 7  # the seed whose first execution misbehaves in the chaos trials


def square(x):  # module-level: picklable for pool workers
    return x * x


def fail_on_victim(x):
    if x == VICTIM:
        raise ValueError("poison seed")
    return 2 * x


@dataclass
class KillOnce:
    """SIGKILL the worker the first time it sees the victim seed."""

    marker: str

    def __call__(self, seed):
        if seed == VICTIM and not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return seed * seed


@dataclass
class HangOnce:
    """Hang (well past any test timeout) the first time the victim seed runs."""

    marker: str

    def __call__(self, seed):
        if seed == VICTIM and not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            time.sleep(60.0)
        return seed + 1


def _broken_factory():
    raise RuntimeError("fork is not available right now")


class TestTrialFailure:
    def test_metric_attributes_read_as_none(self):
        failure = TrialFailure(
            seed=3, item="3", attempts=2, kind="error", error_type="ValueError", message="x"
        )
        assert failure.elected is None
        assert failure.messages_total is None
        assert failure.seed == 3 and failure.attempts == 2

    def test_private_lookups_fail_normally_so_pickle_works(self):
        failure = TrialFailure(
            seed=None, item="spec", attempts=1, kind="timeout", error_type="TimeoutError", message=""
        )
        with pytest.raises(AttributeError):
            failure._nonexistent
        clone = pickle.loads(pickle.dumps(failure))
        assert clone == failure


class TestExecutionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(trial_timeout=0.0)
        with pytest.raises(ValueError):
            ExecutionPolicy(retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(backoff_base=1.0, backoff_cap=0.5)

    def test_supervised_property(self):
        assert not ExecutionPolicy().supervised
        assert ExecutionPolicy(trial_timeout=1.0).supervised
        assert ExecutionPolicy(retries=1).supervised


class TestChaosRecovery:
    """Worker loss, hangs and errors must not cost results or determinism."""

    def test_sigkilled_worker_recovers_bit_identical(self, tmp_path):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        items = list(range(12))
        fn = KillOnce(str(tmp_path / "killed"))
        policy = ExecutionPolicy(trial_timeout=2.0, retries=2, backoff_base=0.01)
        with SweepPool(workers=3, policy=policy) as pool:
            results = pool.map(fn, items)
        assert os.path.exists(str(tmp_path / "killed"))  # the kill really happened
        assert results == [x * x for x in items]  # bit-identical to serial
        assert policy.failures == []  # recovered, not recorded as failed

    def test_hung_trial_times_out_and_retry_succeeds(self, tmp_path):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        items = list(range(10))
        fn = HangOnce(str(tmp_path / "hung"))
        policy = ExecutionPolicy(trial_timeout=1.0, retries=2, backoff_base=0.01)
        with SweepPool(workers=2, policy=policy) as pool:
            results = pool.map(fn, items)
        assert results == [x + 1 for x in items]
        assert policy.failures == []

    def test_exhausted_retries_become_structured_failures(self):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        items = list(range(10))
        policy = ExecutionPolicy(retries=1, backoff_base=0.01)
        with SweepPool(workers=2, policy=policy) as pool:
            results = pool.map(fail_on_victim, items)
        for x, result in zip(items, results):
            if x == VICTIM:
                assert isinstance(result, TrialFailure)
                assert result.kind == "error"
                assert result.error_type == "ValueError"
                assert result.attempts == 2  # first run + one retry
            else:
                assert result == 2 * x
        assert len(policy.failures) == 1
        assert policy.failures[0].seed == VICTIM

    def test_unusable_pool_degrades_to_serial(self):
        pools = ForkPoolManager(_broken_factory)
        policy = ExecutionPolicy(
            trial_timeout=1.0, backoff_base=0.001, backoff_cap=0.001, max_pool_rebuilds=1
        )
        results = supervised_map(
            square, list(range(6)), pools=pools, workers=2, policy=policy
        )
        assert results == [x * x for x in range(6)]
        assert policy.failures == []

    def test_serial_degradation_still_retries_and_records_failures(self):
        pools = ForkPoolManager(_broken_factory)
        policy = ExecutionPolicy(
            trial_timeout=1.0, retries=1, backoff_base=0.001, backoff_cap=0.001,
            max_pool_rebuilds=0,
        )
        results = supervised_map(
            fail_on_victim, list(range(10)), pools=pools, workers=2, policy=policy
        )
        assert [r for x, r in zip(range(10), results) if x != VICTIM] == [
            2 * x for x in range(10) if x != VICTIM
        ]
        assert isinstance(results[VICTIM], TrialFailure)
        assert results[VICTIM].attempts == 2

    def test_serial_execution_honours_the_retry_contract(self):
        # --retries must mean the same thing at workers=1 as on a pool: the
        # failing trial becomes a TrialFailure, everything else completes.
        policy = ExecutionPolicy(retries=1)
        results = monte_carlo(
            fail_on_victim, trials=10, base_seed=0, pool=SweepPool(1, policy=policy)
        )
        failures = [r for r in results if isinstance(r, TrialFailure)]
        # fail_on_victim keys off the raw derived seeds; at least the
        # non-failing trials must have completed with real values.
        assert len(results) == 10
        assert all(isinstance(r, (int, TrialFailure)) for r in results)
        assert policy.failures == failures

    def test_serial_run_trial_captures_divergence(self):
        spec = ScenarioSpec(
            algorithm="abe-election",
            topology={"kind": "uniring", "params": {"n": 8}},
            seed=3,
            trials=2,
            max_events=16,
            on_budget="raise",
        )
        policy = ExecutionPolicy(retries=1)
        results = run_scenario(spec, pool=SweepPool(1, policy=policy))
        assert len(results) == 2
        assert all(isinstance(r, TrialFailure) for r in results)
        assert all(f.error_type == "SimulationDiverged" for f in policy.failures)
        assert all(f.attempts == 2 for f in policy.failures)  # retried deterministically

    def test_unsupervised_map_is_unchanged(self):
        # No policy (or a non-supervising one) keeps the historical behaviour:
        # worker exceptions propagate, results are bit-identical.
        if not fork_available():
            pytest.skip("fork start method unavailable")
        with SweepPool(workers=2) as pool:
            assert pool.map(square, range(8)) == [x * x for x in range(8)]
            with pytest.raises(ValueError):
                pool.map(fail_on_victim, range(10))


class TestKeyboardInterrupt:
    def test_interrupt_terminates_and_joins_workers(self, monkeypatch):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        import repro.experiments.resilience as resilience

        pool = SweepPool(workers=2)
        try:
            assert pool.map(square, range(4)) == [0, 1, 4, 9]
            assert pool._pool is not None

            def interrupted(handle, timeout):
                raise KeyboardInterrupt

            monkeypatch.setattr(resilience, "_get_result", interrupted)
            with pytest.raises(KeyboardInterrupt):
                pool.map(square, range(4))
            # The workers were terminated and joined, not leaked.
            assert pool._pool is None
        finally:
            pool.close()


class TestDivergenceWatchdog:
    # 16 events on n = 8 is one short of the cheapest possible election:
    # n start-ups, one activation and the winner's n deliveries.

    def test_event_budget_exhaustion_raises_when_asked(self):
        with pytest.raises(SimulationDiverged) as info:
            run_election(8, a0=0.3, seed=3, max_events=16, on_budget="raise")
        assert info.value.events_processed == 16
        assert info.value.max_events == 16

    def test_default_on_budget_truncates_silently(self):
        result = run_election(8, a0=0.3, seed=3, max_events=16)
        assert not result.elected  # truncated, but no exception

    def test_completed_run_never_raises(self):
        result = run_election(8, a0=0.3, seed=3, on_budget="raise")
        assert result.elected

    def test_unknown_on_budget_rejected(self):
        with pytest.raises(ValueError):
            run_election(8, a0=0.3, seed=3, on_budget="explode")

    def test_exception_survives_pickling(self):
        error = SimulationDiverged("boom", 10, 2.5, 100, None)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, SimulationDiverged)
        assert clone.events_processed == 10
        assert clone.max_events == 100

    def test_scenario_spec_on_budget_raise(self):
        spec = ScenarioSpec(
            algorithm="abe-election",
            topology={"kind": "uniring", "params": {"n": 8}},
            seed=3,
            trials=1,
            max_events=16,
            on_budget="raise",
        )
        with pytest.raises(SimulationDiverged):
            run_scenario(spec, workers=1)

    def test_scenario_spec_rejects_unknown_on_budget(self):
        with pytest.raises(ValueError):
            ScenarioSpec(algorithm="abe-election", on_budget="explode")


class TestResultCodec:
    def test_primitives_and_containers_round_trip(self):
        value = {"a": [1, 2.5, None, True], "b": (3, "x"), "c": {"d": -1}}
        assert decode_result(encode_result(value)) == value

    def test_dataclass_round_trips_field_for_field(self):
        result = run_election(6, a0=0.3, seed=1)
        clone = decode_result(encode_result(result))
        assert clone == result  # dataclass __eq__: every field, exact floats

    def test_unjournalable_values_rejected(self):
        with pytest.raises(TypeError):
            encode_result(object())
        with pytest.raises(TypeError):
            encode_result({1: "non-string key"})


class TestCheckpointStore:
    """The executor's store: keyed trials are served, fresh ones recorded."""

    def test_record_and_lookup_round_trip(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        result = run_election(6, a0=0.3, seed=1)
        with ResultStore(path, fresh=True) as store:
            assert store.record("key", 123, result)
            assert not store.record("key", 123, result)  # idempotent
        with ResultStore(path) as resumed:
            assert len(resumed) == 1
            assert resumed.lookup("key", [123])[123] == result
            assert resumed.lookup("other-key", [123]) == {}

    def test_fresh_store_discards_existing_trials(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        with ResultStore(path, fresh=True) as store:
            store.record("key", 1, 42)
        with ResultStore(path, fresh=True) as fresh:
            assert len(fresh) == 0
        with ResultStore(path) as resumed:
            assert resumed.lookup("key", [1]) == {}

    def test_run_seeds_executes_only_missing_seeds(self, tmp_path):
        with ResultStore(tmp_path / "checkpoint.sqlite") as store:
            store.record_many([("key", 10, 100), ("key", 12, 144)])
            executed = []

            def counting_square(seed):
                executed.append(seed)
                return seed * seed

            results = SweepPool(store=store).run_seeds(counting_square, [10, 11, 12, 13], "key")
            assert results == [100, 121, 144, 169]
            assert executed == [11, 13]  # cached seeds were never re-run
            assert ("key", 11) in store and ("key", 13) in store

    def test_failures_are_returned_but_never_journaled(self, tmp_path):
        failure = TrialFailure(
            seed=11, item="11", attempts=1, kind="error", error_type="E", message=""
        )

        def fails_at_eleven(seed):
            return failure if seed == 11 else seed

        with ResultStore(tmp_path / "checkpoint.sqlite") as store:
            results = SweepPool(store=store).run_seeds(fails_at_eleven, [10, 11], "key")
            assert results == [10, failure]
            assert ("key", 10) in store
            assert ("key", 11) not in store  # a resume re-attempts it

    def test_unkeyed_trials_bypass_the_store(self, tmp_path):
        with ResultStore(tmp_path / "checkpoint.sqlite") as store:
            pool = SweepPool(store=store)
            assert pool.run_seeds(abs, [-3, 4]) == [3, 4]
            assert len(store) == 0 and store.hits + store.misses == 0

    def test_serial_pool_journals_after_every_trial(self, tmp_path):
        with ResultStore(tmp_path / "checkpoint.sqlite") as store:
            batches = []
            record_many = store.record_many
            store.record_many = lambda rows: batches.append(len(rows)) or record_many(rows)
            SweepPool(1, store=store).monte_carlo(abs, trials=5, key="k")
            assert batches == [1, 1, 1, 1, 1]

    def test_pooled_executor_journals_in_worker_sized_blocks(self, tmp_path):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        with ResultStore(tmp_path / "checkpoint.sqlite") as store:
            batches = []
            record_many = store.record_many
            store.record_many = lambda rows: batches.append(len(rows)) or record_many(rows)
            with SweepPool(2, store=store) as pool:
                results = pool.monte_carlo(abs, trials=40, key="k")
            assert batches == [16, 16, 8]  # max(16, 4 * workers) per block
            assert results == [abs(seed) for seed in trial_seeds(0, 40)]


class TestFingerprints:
    def test_spec_fingerprint_ignores_execution_only_fields(self):
        base = ScenarioSpec(algorithm="abe-election", seed=5, trials=4)
        more_workers = ScenarioSpec(algorithm="abe-election", seed=5, trials=4, workers=8)
        assert spec_fingerprint(base) == spec_fingerprint(more_workers)
        other = ScenarioSpec(algorithm="abe-election", seed=6, trials=4)
        assert spec_fingerprint(base) != spec_fingerprint(other)

    def test_spec_fingerprint_handles_runtime_objects_in_overrides(self):
        # e1/e3 pass live delay-model objects through election_overrides; the
        # fingerprint must stay total (and stable) for them.
        spec = ScenarioSpec(
            algorithm="abe-election",
            params={"election_overrides": {"delay": ExponentialDelay(mean=2.0)}},
        )
        assert spec_fingerprint(spec) == spec_fingerprint(spec)

    def test_callable_fingerprint_for_picklable_and_not(self):
        trial = compile_trial(election_spec(6, 1, 0, a0=0.3))
        key = callable_fingerprint(trial, 0, "label")
        assert key is not None
        assert key != callable_fingerprint(trial, 1, "label")
        unpicklable = lambda seed: seed  # noqa: E731 - deliberately a closure
        assert callable_fingerprint(unpicklable, 0, "label") is None


class TestMonteCarloResume:
    def test_resumed_monte_carlo_skips_all_completed_trials(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        trial = compile_trial(election_spec(6, 1, 0, a0=0.3))
        with ResultStore(path, fresh=True) as store:
            first = SweepPool(store=store).monte_carlo(trial, trials=4, base_seed=9, key="point")

        calls = []

        def bomb(seed):
            calls.append(seed)
            raise AssertionError("resume must not re-run completed trials")

        with ResultStore(path) as store:
            resumed = SweepPool(store=store).monte_carlo(bomb, trials=4, base_seed=9, key="point")
        assert calls == []
        assert resumed == first  # bit-identical aggregates

    def test_partial_resume_runs_only_missing_seeds(self, tmp_path):
        trial = compile_trial(election_spec(6, 1, 0, a0=0.3))
        seeds = trial_seeds(9, 4)
        executed = []

        def counting(seed):
            executed.append(seed)
            return trial(seed)

        with ResultStore(tmp_path / "checkpoint.sqlite") as store:
            store.record_many([("point", seeds[0], trial(seeds[0])), ("point", seeds[2], trial(seeds[2]))])
            results = SweepPool(store=store).monte_carlo(counting, trials=4, base_seed=9, key="point")
        assert sorted(executed) == sorted([seeds[1], seeds[3]])
        assert results == [trial(seed) for seed in seeds]

    def test_adaptive_run_resumes_bit_identically(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        trial = compile_trial(election_spec(6, 1, 0, a0=0.3))
        rule = AdaptiveStopping(
            ci_tolerance=0.5, min_trials=2, batch_size=2, metric="messages_total"
        )
        with ResultStore(path, fresh=True) as store:
            first = SweepPool(store=store).monte_carlo(
                trial, trials=6, adaptive=rule, base_seed=9, key="point"
            )
        calls = []

        def bomb(seed):
            calls.append(seed)
            raise AssertionError("resume must not re-run completed trials")

        with ResultStore(path) as store:
            resumed = SweepPool(store=store).monte_carlo(
                bomb, trials=6, adaptive=rule, base_seed=9, key="point"
            )
        assert calls == []
        assert resumed == first

    def test_pooled_resume_matches_serial_journal(self, tmp_path):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        path = tmp_path / "checkpoint.sqlite"
        trial = compile_trial(election_spec(6, 1, 0, a0=0.3))
        with ResultStore(path, fresh=True) as store:
            serial = SweepPool(store=store).monte_carlo(trial, trials=4, base_seed=9, key="point")
        with ResultStore(path) as store, SweepPool(workers=2, store=store) as pool:
            pooled = pool.monte_carlo(trial, trials=4, base_seed=9, key="point")
        assert pooled == serial


class TestScenarioCheckpointing:
    def _spec(self):
        return ScenarioSpec(
            algorithm="abe-election",
            topology={"kind": "uniring", "params": {"n": 6}},
            seed=5,
            trials=3,
            label="resume-test",
        )

    def test_run_scenario_resumes_bit_identically(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        with ResultStore(path, fresh=True) as store:
            first = run_scenario(self._spec(), pool=SweepPool(store=store))
        with ResultStore(path) as store:
            assert len(store) == 3
            resumed = run_scenario(self._spec(), pool=SweepPool(store=store))
            assert store.hits == 3 and store.misses == 0
        assert resumed == first

    def test_run_study_consults_the_executor_store(self, tmp_path):
        path = tmp_path / "checkpoint.sqlite"
        study = StudySpec(name="resume", points=(self._spec(), self._spec().replace(seed=6)))
        with ResultStore(path, fresh=True) as store:
            first = run_study(study, pool=SweepPool(store=store))
            assert len(store) == 6
        with ResultStore(path) as store:
            resumed = run_study(study, pool=SweepPool(store=store))
            assert store.hits == 6 and store.misses == 0
        assert resumed == first


class TestCLIResilienceFlags:
    def test_parser_accepts_resilience_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "experiment", "e4",
                "--trial-timeout", "30",
                "--retries", "1",
                "--checkpoint", "study.sqlite",
            ]
        )
        assert args.trial_timeout == 30.0
        assert args.retries == 1
        assert args.checkpoint == "study.sqlite"
        assert args.resume is False

    def test_resume_without_checkpoint_rejected(self, tmp_path):
        from repro.experiments.runner import executor_from_args

        args = type("Args", (), {
            "trial_timeout": None, "retries": None, "checkpoint": None, "resume": True,
        })()
        with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
            with executor_from_args(args, 1, None):
                pass

    def test_scenario_checkpoint_then_resume_byte_identical_output(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "algorithm": "abe-election",
            "topology": {"kind": "uniring", "params": {"n": 6}},
            "seed": 5,
            "trials": 2,
            "label": "cli-resume",
        }))
        store_path = tmp_path / "study.sqlite"

        assert main(["scenario", str(spec_path), "--checkpoint", str(store_path)]) == 0
        first = capsys.readouterr().out
        with ResultStore(store_path) as store:
            assert len(store) == 2

        assert main([
            "scenario", str(spec_path), "--checkpoint", str(store_path), "--resume"
        ]) == 0
        resumed = capsys.readouterr().out
        assert resumed == first  # byte-identical report from the store
