"""One fan-out per study round: a battery's points share maps and commits.

:meth:`SweepPool.run_points` is the one trial loop.  Each round takes the
next seeds of every unfinished point, maps the missing trials of all of them
together in journaling blocks, and records each block in one store
transaction.  Only that grouping may differ from running the points one
after another: per point, the results, the stopping point, the cache hits,
the executed trials and the store rows must be those of the point run alone
through :func:`run_scenario` on the same store.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments import e1_message_complexity, e4_retransmission
from repro.experiments.parallel import PointRun, SweepPool, fork_available
from repro.experiments.resilience import ExecutionPolicy, TrialFailure
from repro.experiments.runner import AdaptiveStopping, trial_seeds
from repro.experiments.workloads import election_spec
from repro.scenarios import StudySpec, run_scenario, run_study
from repro.store import ResultStore
from repro.store.service import StudyService

WORKERS = [1, pytest.param(2, marks=pytest.mark.skipif(not fork_available(), reason="no fork"))]

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class FailsAt:
    """A picklable trial that raises at one seed and returns ``abs`` elsewhere."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def __call__(self, seed: int) -> int:
        if seed == self.seed:
            raise ValueError(f"trial {seed} fails")
        return abs(seed)


def mixed_study() -> StudySpec:
    """Fixed-count elections, an adaptive point, two one-shot E4 points and
    two points with one fingerprint (same spec, different ``trials``), the
    second of which must wait for the first to hit its rows."""
    adaptive = AdaptiveStopping(ci_tolerance=0.4, min_trials=2, batch_size=2)
    e4 = e4_retransmission.build_study(probabilities=(0.3, 0.5), messages=400).points
    return StudySpec(
        name="mixed",
        metric="messages_total",
        points=(
            election_spec(6, 4, 3),
            election_spec(5, 2, 9),
            election_spec(7, 10, 5, stopping=adaptive),
            e4[0],
            election_spec(5, 4, 9),
            e4[1],
            election_spec(8, 3, 3),
        ),
    )


def stored_rows(store: ResultStore):
    return {(key, seed): result for key, seed, _, _, result in store.iter_rows()}


def one_after_another(study: StudySpec, path):
    """The reference: each point alone through run_scenario on one store."""
    per_point = []
    with ResultStore(path) as store:
        pool = SweepPool(1, store=store)
        for point in study.points:
            hits, misses = store.hits, store.misses
            results = run_scenario(point, pool=pool)
            per_point.append((results, store.hits - hits, store.misses - misses))
        return per_point, stored_rows(store)


class TestMixedBattery:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        return one_after_another(mixed_study(), tmp_path_factory.mktemp("ref") / "ref.sqlite")

    @pytest.mark.parametrize("workers", WORKERS)
    def test_run_study_gives_each_point_what_it_gives_alone(self, tmp_path, reference, workers):
        expected, expected_rows = reference
        with ResultStore(tmp_path / "battery.sqlite") as store:
            with SweepPool(workers, store=store) as pool:
                per_point = run_study(mixed_study(), pool=pool)
            assert per_point == [results for results, _, _ in expected]
            assert store.hits == sum(hits for _, hits, _ in expected)
            assert store.misses == sum(misses for _, _, misses in expected)
            assert stored_rows(store) == expected_rows

    @pytest.mark.parametrize("workers", WORKERS)
    def test_service_reports_each_point_as_it_ran_alone(self, tmp_path, reference, workers):
        expected, expected_rows = reference
        with ResultStore(tmp_path / "battery.sqlite") as store:
            with StudyService(store, workers=workers) as service:
                service.submit(mixed_study())
                (report,) = service.run_pending()
            assert [
                (point.results, point.hits, point.executed) for point in report.points
            ] == expected
            assert stored_rows(store) == expected_rows
        # The second same-fingerprint point found the first one's two rows.
        assert [point.hits for point in report.points][4] == 2
        # The adaptive point stopped where it stops alone, four batches in.
        assert len(report.points[2].results) == 8


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestOneMapPerRound:
    def _map_sizes(self, pool):
        sizes = []
        pool_map = pool.map
        pool.map = lambda fn, items: sizes.append(len(items)) or pool_map(fn, items)
        return sizes

    def test_three_adaptive_points_share_each_batch_map(self):
        rule = AdaptiveStopping(ci_tolerance=1e-9, min_trials=2, batch_size=2, metric="election_time")
        study = StudySpec(name="three", points=tuple(election_spec(n, 8, 3) for n in (5, 6, 7)))
        with SweepPool(2) as pool:
            sizes = self._map_sizes(pool)
            per_point = run_study(study, pool=pool, adaptive=rule)
        assert sizes == [6, 6, 6, 6]
        assert per_point == [run_scenario(point, adaptive=rule) for point in study.points]

    def test_one_shot_points_fan_out_together(self):
        study = e4_retransmission.build_study(probabilities=(0.3, 0.5, 0.9), messages=400)
        with SweepPool(2) as pool:
            sizes = self._map_sizes(pool)
            measurements = run_study(study, pool=pool)
        assert sizes == [3]
        assert measurements == run_study(study)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_journaling_blocks_span_points_with_one_transaction_each(tmp_path):
    with ResultStore(tmp_path / "blocks.sqlite") as store:
        blocks, statements = [], []
        record_many = store.record_many
        store.record_many = lambda rows: blocks.append([key for key, _, _ in rows]) or record_many(rows)
        store._conn.set_trace_callback(statements.append)
        points = [PointRun.derived(abs, 10, base, key=key) for base, key in ((1, "a"), (2, "b"), (3, "c"))]
        with SweepPool(2, store=store) as pool:
            per_point = pool.run_points(points)
        assert blocks == [["a"] * 10 + ["b"] * 6, ["b"] * 4 + ["c"] * 10]  # max(16, 4 * workers)
        assert [s.split()[0] for s in statements if s.startswith(("BEGIN", "COMMIT"))] == [
            "BEGIN", "COMMIT", "BEGIN", "COMMIT",
        ]
        assert per_point == [[abs(seed) for seed in trial_seeds(base, 10)] for base in (1, 2, 3)]
        assert len(store) == 30


class TestFailuresAndPickling:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_a_failed_fanned_trial_names_its_seed(self, tmp_path, workers):
        seeds = trial_seeds(4, 6)
        bad = seeds[2]
        policy = ExecutionPolicy(retries=1)
        with ResultStore(tmp_path / "failures.sqlite") as store:
            points = [PointRun.derived(abs, 3, 7, key="ok"), PointRun.derived(FailsAt(bad), 6, 4, key="bad")]
            with SweepPool(workers, policy=policy, store=store) as pool:
                ok, flaky = pool.run_points(points)
            assert ok == [abs(seed) for seed in trial_seeds(7, 3)]
            failure = flaky[2]
            assert isinstance(failure, TrialFailure)
            assert (failure.seed, failure.item, failure.attempts, failure.kind, failure.error_type) == (
                bad, repr(bad), 2, "error", "ValueError",
            )
            assert policy.failures == [failure]
            assert ("bad", bad) not in store and len(store) == 8  # a failure is never journaled

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_a_closure_anywhere_in_the_battery_fails_before_any_dispatch(self, tmp_path):
        offset = 100

        def shifted(seed):
            return seed + offset

        with ResultStore(tmp_path / "closure.sqlite") as store:
            with SweepPool(2, store=store) as pool:
                with pytest.raises(TypeError, match="shifted.*module-level function"):
                    pool.run_points(
                        [PointRun.derived(abs, 4, key="a"), PointRun.derived(shifted, 4, key="b")]
                    )
                assert pool._pool is None  # nothing was forked
            assert len(store) == 0  # and nothing ran


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_two_concurrent_serves_share_one_store(tmp_path):
    """Two `serve` processes fill one store at once: no row lost or doubled."""
    study = e1_message_complexity.build_study(sizes=(8, 16, 32), trials=20, base_seed=11)
    spec_path = tmp_path / "study.json"
    spec_path.write_text(json.dumps(study.to_dict()))
    store_path = tmp_path / "shared.sqlite"
    processes = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(spec_path), "--store", str(store_path),
             "--export", str(tmp_path / name), "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        for name in ("first", "second")
    ]
    try:
        outputs = [process.communicate(timeout=180) for process in processes]
    finally:
        for process in processes:
            process.kill()
    assert [process.returncode for process in processes] == [0, 0], outputs
    with ResultStore(store_path) as store:
        rows = [(key, seed) for key, seed, _, _, _ in store.iter_rows()]
    assert len(rows) == len(set(rows)) == 60
    exports = []
    for name in ("first", "second"):
        (document,) = os.listdir(tmp_path / name)
        with open(tmp_path / name / document, encoding="utf-8") as handle:
            exports.append(json.dumps(json.load(handle)["points"], indent=2, sort_keys=True))
    assert exports[0] == exports[1]
