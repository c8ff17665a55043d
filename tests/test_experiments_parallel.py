"""Determinism and behaviour of parallel Monte-Carlo trial execution.

The seed-derivation contract says trial ``i`` of base seed ``s`` always runs
with ``derive_seed(s, "trial{i}")`` and each trial is a pure function of that
seed.  These tests pin the two consequences the experiments rely on:

* serial and parallel execution produce bit-identical result lists for any
  worker count, and
* results are reproducible across separate Python processes (``derive_seed``
  is hash-salt independent).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.parallel import SweepPool, default_worker_count, fork_available
from repro.experiments.resilience import ExecutionPolicy
from repro.experiments.runner import mean_of_attribute, monte_carlo
from repro.experiments.workloads import election_spec
from repro.scenarios import run_scenario


# Module-level: a callable fanned over more than one worker must pickle.
def square(x):
    return x * x


def mod_five(seed):
    return seed % 5


def mod_three(seed):
    return seed % 3


def scramble(seed):
    return (seed * 7) % 101


class TestSweepPoolMapping:
    def test_map_preserves_order(self):
        with SweepPool(workers=4) as pool:
            assert pool.map(square, range(20)) == [x * x for x in range(20)]

    def test_map_with_one_worker_is_serial(self):
        # In process: even a closure works, nothing crosses a process boundary.
        assert SweepPool(workers=1).map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_workers_none_uses_cpu_count(self):
        assert SweepPool(workers=None).workers == default_worker_count()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            SweepPool(workers=0)

    def test_monte_carlo_method_matches_function(self):
        with SweepPool(workers=2) as pool:
            via_method = pool.monte_carlo(mod_five, trials=10, base_seed=3)
        via_function = monte_carlo(mod_five, trials=10, base_seed=3)
        assert via_method == via_function


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
class TestUnpicklableCallables:
    """A closure cannot reach long-lived workers: the executor says so up
    front, once, instead of dispatching (or retrying) every item."""

    def test_pooled_map_rejects_a_lambda_before_dispatch(self):
        with SweepPool(workers=2) as pool:
            with pytest.raises(TypeError, match="module-level function") as info:
                pool.map(lambda x: x, [1, 2, 3])
            assert "<lambda>" in str(info.value)
            assert "ElectionScenarioTrial" in str(info.value)
            assert pool._pool is None  # nothing was forked for it

    def test_policy_does_not_turn_it_into_retried_failures(self):
        policy = ExecutionPolicy(retries=1)
        with SweepPool(workers=2, policy=policy) as pool:
            with pytest.raises(TypeError, match="cannot be sent to pool workers"):
                pool.map(lambda x: x, [1, 2, 3])
        assert policy.failures == []

    def test_monte_carlo_of_a_closure_on_workers_names_the_fix(self):
        offset = 100

        def shifted(seed):
            return seed + offset

        with pytest.raises(TypeError, match="shifted.*module-level function"):
            monte_carlo(shifted, trials=4, base_seed=1, workers=2)


class TestMonteCarloWorkers:
    def test_keep_filter_applied_after_parallel_gather(self):
        serial = monte_carlo(mod_three, trials=12, base_seed=1, keep=lambda v: v == 0)
        parallel = monte_carlo(
            mod_three, trials=12, base_seed=1, keep=lambda v: v == 0, workers=3
        )
        assert serial == parallel
        assert all(value == 0 for value in parallel)

    def test_keep_can_drop_everything(self):
        assert (
            monte_carlo(lambda seed: seed, trials=4, base_seed=1, keep=lambda v: False)
            == []
        )

    def test_workers_do_not_change_results(self):
        serial = monte_carlo(scramble, trials=16, base_seed=9)
        fanned = monte_carlo(scramble, trials=16, base_seed=9, workers=4)
        assert serial == fanned


class TestMeanOfAttribute:
    class _Point:
        def __init__(self, value):
            self.value = value

    def test_empty_results_raise(self):
        with pytest.raises(ValueError):
            mean_of_attribute([], "value")

    def test_all_none_values_raise(self):
        with pytest.raises(ValueError):
            mean_of_attribute([self._Point(None), self._Point(None)], "value")

    def test_none_values_excluded_from_mean(self):
        points = [self._Point(2.0), self._Point(None), self._Point(4.0)]
        assert mean_of_attribute(points, "value") == 3.0


class TestElectionDeterminism:
    """The acceptance-critical regression tests for the seed contract."""

    def test_serial_and_parallel_election_results_bit_identical(self):
        spec = election_spec(8, trials=6, base_seed=13)
        serial = run_scenario(spec)
        parallel = run_scenario(spec, workers=4)
        # ElectionResult is a dataclass of primitives: == is field-wise.
        assert serial == parallel

    def test_experiment_findings_identical_across_worker_counts(self):
        from repro.experiments import e1_message_complexity

        serial = e1_message_complexity.run(sizes=(8, 16), trials=3, base_seed=11)
        fanned = e1_message_complexity.run(sizes=(8, 16), trials=3, base_seed=11, workers=3)
        assert serial.findings == fanned.findings
        assert [dict(row) for row in serial.table()] == [
            dict(row) for row in fanned.table()
        ]

    def test_election_counters_bit_identical_serial_vs_workers(self):
        """The plain-integer election counters (ticks, activations, knockouts,
        hop overflows) survive the fork boundary bit-identically: a worker
        process increments its own status object and ships the counts back
        inside the result record."""
        spec = election_spec(10, trials=6, base_seed=17)
        serial = run_scenario(spec)
        fanned = run_scenario(spec, workers=4)
        for s, f in zip(serial, fanned):
            assert (s.ticks, s.activations, s.knockout_messages, s.hop_overflows) == (
                f.ticks,
                f.activations,
                f.knockout_messages,
                f.hop_overflows,
            )
        assert all(r.ticks > 0 and r.activations > 0 for r in fanned)

    def test_results_identical_across_processes(self):
        """Same seed => same results in a fresh interpreter (twice over)."""
        snippet = (
            "import json, sys\n"
            "from repro.experiments.workloads import election_spec\n"
            "from repro.scenarios import run_scenario\n"
            "results = run_scenario(election_spec(8, 3, 21), workers=2)\n"
            "payload = [[r.messages_total, r.election_time, r.leader_uid, r.seed,"
            " r.ticks, r.activations, r.knockout_messages]"
            " for r in results]\n"
            "print(json.dumps(payload))\n"
        )
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(src_root, "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        outputs = []
        for _ in range(2):
            completed = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=env,
                check=True,
                timeout=300,
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0] == outputs[1]
        in_process = run_scenario(election_spec(8, trials=3, base_seed=21))
        expected = [
            [
                r.messages_total,
                r.election_time,
                r.leader_uid,
                r.seed,
                r.ticks,
                r.activations,
                r.knockout_messages,
            ]
            for r in in_process
        ]
        assert outputs[0] == expected
