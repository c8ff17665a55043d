"""Behaviour and determinism of the shared SweepPool.

The pool-reuse optimization must be invisible in the results: the same
``derive_seed`` discipline, the same input order, bit-identical outcomes for
any worker count -- whether the pool is created per sweep, passed in from
outside, or absent (serial).
"""

from __future__ import annotations

import pytest

from repro.experiments.parallel import SweepPool, fork_available
from repro.experiments.runner import monte_carlo
from repro.experiments.workloads import election_spec
from repro.scenarios import StudySpec, compile_trial, run_scenario, run_study


def square(x):  # module-level: picklable for pool workers
    return x * x


def poison(x):  # module-level: picklable, raises on one input
    if x == 3:
        raise ValueError("poison item")
    return x * x


class TestSweepPoolBasics:
    def test_map_preserves_order(self):
        with SweepPool(workers=3) as pool:
            assert pool.map(square, range(12)) == [x * x for x in range(12)]

    def test_single_worker_runs_serially_without_a_pool(self):
        pool = SweepPool(workers=1)
        assert pool.map(square, [1, 2, 3]) == [1, 4, 9]
        assert pool._pool is None

    def test_pool_object_is_reused_across_maps(self):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        with SweepPool(workers=2) as pool:
            assert pool.map(square, range(4)) == [0, 1, 4, 9]
            first = pool._pool
            assert first is not None
            assert pool.map(square, range(6)) == [x * x for x in range(6)]
            assert pool._pool is first  # no re-fork between parameter points

    def test_closed_pool_rejects_pooled_maps(self):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        pool = SweepPool(workers=2)
        pool.map(square, range(4))
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(square, range(4))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SweepPool(workers=0)

    def test_monte_carlo_matches_serial_runner(self):
        serial = monte_carlo(square, trials=10, base_seed=3)
        with SweepPool(workers=2) as pool:
            pooled = pool.monte_carlo(square, trials=10, base_seed=3)
        assert pooled == serial

    def test_monte_carlo_keep_filter_after_ordered_gather(self):
        with SweepPool(workers=2) as pool:
            kept = pool.monte_carlo(
                square, trials=12, base_seed=1, keep=lambda value: value % 2 == 0
            )
        expected = [v for v in monte_carlo(square, trials=12, base_seed=1) if v % 2 == 0]
        assert kept == expected


class TestSweepPoolExceptionPaths:
    """Failure inside a map must leave the pool object in a sane state."""

    def test_worker_exception_propagates_and_pool_stays_usable(self):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        with SweepPool(workers=2) as pool:
            with pytest.raises(ValueError, match="poison item"):
                pool.map(poison, range(6))
            # pool.map always propagated worker exceptions and kept the pool
            # alive; the supervised rewrite must preserve both.
            assert pool.map(square, range(6)) == [x * x for x in range(6)]

    def test_close_after_failed_map_is_clean(self):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        pool = SweepPool(workers=2)
        with pytest.raises(ValueError):
            pool.map(poison, range(6))
        pool.close()  # must terminate+join without hanging or raising
        assert pool._pool is None
        with pytest.raises(RuntimeError):
            pool.map(square, range(4))

    def test_ensure_releases_owned_pool_on_error(self):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        leaked = {}
        with pytest.raises(RuntimeError, match="mid-sweep"):
            with SweepPool.ensure(None, 2) as owned:
                owned.map(square, range(4))
                leaked["pool"] = owned
                raise RuntimeError("mid-sweep")
        assert leaked["pool"]._closed
        assert leaked["pool"]._pool is None

    def test_ensure_leaves_external_pool_open_on_error(self):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        with SweepPool(workers=2) as external:
            with pytest.raises(RuntimeError):
                with SweepPool.ensure(external, None) as shared:
                    shared.map(square, range(4))
                    raise RuntimeError("mid-sweep")
            assert not external._closed
            assert external.map(square, range(4)) == [0, 1, 4, 9]


class TestElectionScenarioTrialPicklability:
    def test_election_scenario_trial_round_trips_through_pickle(self):
        import pickle

        trial = compile_trial(election_spec(8, 1, 0, a0=0.3, fifo=True))
        clone = pickle.loads(pickle.dumps(trial))
        assert clone.n == 8 and clone.a0 == 0.3 and clone.kwargs["fifo"] is True
        assert clone(seed=5) == trial(seed=5)


class TestSweepDeterminism:
    def test_pooled_trials_bit_identical_to_serial(self):
        spec = election_spec(8, trials=4, base_seed=13)
        serial = run_scenario(spec)
        with SweepPool(workers=3) as pool:
            pooled = run_scenario(spec, pool=pool)
        assert pooled == serial

    def test_shared_pool_sweep_bit_identical_across_paths(self):
        study = StudySpec(name="sizes", points=tuple(election_spec(n, 3, 9) for n in (4, 8)))
        serial = run_study(study)
        with SweepPool(workers=2) as pool:
            shared = run_study(study, pool=pool)
        per_point = [run_scenario(point, workers=2) for point in study.points]
        assert serial == shared == per_point

    def test_e1_with_external_pool_matches_serial(self):
        from repro.experiments import e1_message_complexity

        serial = e1_message_complexity.run(sizes=(4, 8), trials=3, base_seed=11)
        with SweepPool(workers=2) as pool:
            pooled = e1_message_complexity.run(
                sizes=(4, 8), trials=3, base_seed=11, pool=pool
            )
        assert serial.findings == pooled.findings
        assert [dict(r) for r in serial.table()] == [dict(r) for r in pooled.table()]

    def test_e5_with_pool_matches_serial(self):
        from repro.experiments import e5_synchronizer_lower_bound

        serial = e5_synchronizer_lower_bound.run(
            sizes=(6,), base_seed=55, include_random_graph=False
        )
        with SweepPool(workers=2) as pool:
            pooled = e5_synchronizer_lower_bound.run(
                sizes=(6,), base_seed=55, include_random_graph=False, pool=pool
            )
        assert serial.findings == pooled.findings
        assert [dict(r) for r in serial.table()] == [dict(r) for r in pooled.table()]
