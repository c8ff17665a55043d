"""Self-tests of the benchmark: the tail-percentile rule, self times over
nested and cross-process spans, trace transparency, seeded inputs, and a
tiny smoke run of every workload with one output check forced to fail."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.measure import REFERENCE_UNIT_S, HostSpeed, highest_tail_percentile, nearest_rank
from perfbench.session import END_TO_END, run_workload, tail_percentile
from perfbench.trace import ID_BASE, LAYER_METRICS, Span, layer_metrics, self_times
from perfbench.workloads import WORKLOADS, Checks, Program, Runner, fill_warm_store, generate

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def program() -> Program:
    return Program(str(ROOT / "src"))


# --------------------------------------------------------------- percentiles


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (99, 50), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert highest_tail_percentile(count) == expected


@pytest.mark.parametrize("jobs, expected", [(1, 50), (11, 50), (200, 95), (1000, 99), (20000, 99)])
def test_job_p99_falls_back_below_a_thousand_jobs(jobs, expected):
    assert tail_percentile(jobs) == expected


def test_tail_rule_holds_for_every_count():
    for count in range(1, 3001):
        percentile = highest_tail_percentile(count)
        if percentile is not None:
            assert count * (100 - percentile) / 100 >= 10 - 1e-9


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank([3.0], 99) == 3.0


# ---------------------------------------------------------------- host speed


def test_host_speed_samples_a_share_of_the_timed_work():
    host = HostSpeed()
    host.keep_up(0.0)
    assert len(host.samples) == 1
    timed = 20 * host.samples[0]
    host.keep_up(timed)
    assert host.spent >= HostSpeed.SHARE * timed
    assert host.spent - host.samples[-1] < HostSpeed.SHARE * timed
    assert host.factor == pytest.approx(sum(host.samples) / len(host.samples) / REFERENCE_UNIT_S)


def test_host_speed_helpers_time_units_alongside_and_stop_on_close():
    with HostSpeed(processes=2) as host:
        helpers = list(host._helpers)
        assert len(helpers) == 1
        host.sample()
        host.sample()
        assert len(host.samples) == 2 and host.factor > 0
    assert all(helper.returncode == 0 for helper in helpers)


def test_host_speed_leaves_the_garbage_collector_as_it_was():
    import gc

    host = HostSpeed()
    assert gc.isenabled()
    host.sample()
    assert gc.isenabled()
    gc.disable()
    try:
        host.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_end_to_end_times_are_rescaled_by_the_host_factor(program, tmp_path):
    from perfbench.session import end_to_end_metrics

    inputs = generate(program, "vector-large-n", 5, tiny=True)
    runner = Runner(program, inputs, str(tmp_path), Checks(), host=HostSpeed())
    runner.run_cycles(1)
    assert runner.host.samples
    raw, scaled = end_to_end_metrics(runner, 1.0), end_to_end_metrics(runner, 2.0)
    assert scaled["job_p50_ms"] == pytest.approx(raw["job_p50_ms"] / 2.0)
    assert scaled["trials_per_s"] == pytest.approx(raw["trials_per_s"] * 2.0)
    assert scaled["peak_rss_mb"] == pytest.approx(raw["peak_rss_mb"], rel=0.05)


# ----------------------------------------------------------------- self time


def _span(pid, number, name, start, end, parent=None, counts=None):
    return Span.from_list([pid * ID_BASE + number, pid, name, start, end, parent, "job", None, counts])


def test_self_time_subtracts_children_of_the_same_process_only():
    parent, worker = 100, 200
    client = _span(parent, 1, "client", 0.0, 10.0)
    lookup = _span(parent, 2, "store.result_store.lookup", 0.5, 1.0, client.id, {"rows": 4, "hits": 1})
    pool_map = _span(parent, 3, "experiments.map", 1.0, 9.0, client.id, {"workers": 2, "items": 4})
    # Runs in a worker while the parent waits in map: concurrent, not nested.
    trial = _span(worker, 1, "trial", 1.5, 8.5, pool_map.id)
    run = _span(worker, 2, "core.run", 2.0, 8.0, trial.id, {"events": 60, "messages": 30, "ticks": 5})
    spans = [client, lookup, pool_map, trial, run]

    own = self_times(spans)
    assert own[client.id] == pytest.approx(1.5)
    assert own[lookup.id] == pytest.approx(0.5)
    assert own[pool_map.id] == pytest.approx(8.0)
    assert own[trial.id] == pytest.approx(1.0)
    assert own[run.id] == pytest.approx(6.0)

    metrics = layer_metrics(spans, parent, wall=10.0, import_s=1.5, overhead=1.02)
    assert metrics["trace.accounted_ratio"] == pytest.approx(1.0)
    assert metrics["experiments.wait_s"] == pytest.approx(8.0)
    assert metrics["experiments.busy_ratio"] == pytest.approx(7.0 / 16.0)
    assert metrics["core.run_s"] == pytest.approx(6.0)
    assert metrics["core.trial_p50_ms"] == pytest.approx(6000.0)
    assert metrics["sim.events_per_s"] == pytest.approx(10.0)
    assert metrics["store.result_store.hit_ratio"] == pytest.approx(0.25)
    assert set(metrics) == {name for name, _ in LAYER_METRICS}


# -------------------------------------------------------------------- inputs


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(program, workload):
    first = generate(program, workload, 7)
    assert generate(program, workload, 7) == first
    assert generate(program, workload, 8) != first


# ---------------------------------------------------------------- smoke runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_output_checks(program, tmp_path, workload):
    inputs = generate(program, workload, 5, tiny=True)
    if workload == "suite-warm":
        assert fill_warm_store(program, inputs, str(tmp_path)).failures == 0
    checks = Checks()
    runner = Runner(program, inputs, str(tmp_path), checks)
    runner.run_cycles(1)
    assert checks.failures == 0, checks.notes
    assert checks.attempted > 0 and runner.trials > 0
    assert len(runner.latencies) == len(inputs.jobs)
    assert runner.cycle_rates and runner.cycle_rates[0] > 0
    if workload == "suite-warm":
        assert checks.evaluated["warm-points-identical"] == len(inputs.jobs)
    if workload == "dse-search":
        assert checks.evaluated["dse-winner-and-baseline"] == 2


def test_tampered_cold_report_fails_the_warm_check(program, tmp_path):
    inputs = generate(program, "suite-warm", 5, tiny=True)
    fill_warm_store(program, inputs, str(tmp_path))
    cold = sorted((tmp_path / "warm" / "cold").glob("*.json"))[0]
    document = json.loads(cold.read_text())
    document["points"][0]["summary"]["trials"] += 1
    cold.write_text(json.dumps(document))
    checks = Checks()
    Runner(program, inputs, str(tmp_path), checks).run_cycles(1)
    assert checks.failed == {"warm-points-identical": 1}
    assert checks.failures == 1


def test_traced_and_untraced_runs_export_identical_points(program, tmp_path):
    from repro.experiments.parallel import SweepPool
    from repro.scenarios import runtime
    from repro.store.service import StudyService

    originals = (SweepPool.map, StudyService.run_pending, runtime.run_scenario)
    inputs = generate(program, "suite-cold", 9, tiny=True)
    result = run_workload(program, inputs, str(tmp_path), seconds=0, trace=True)
    assert (SweepPool.map, StudyService.run_pending, runtime.run_scenario) == originals

    assert result["checks"].failures == 0, result["checks"].notes
    assert result["outputs"] == result["untraced_outputs"]
    assert len(result["outputs"]) == len(inputs.jobs)
    metrics = result["metrics"]
    assert metrics["core.trials"] > 0 and metrics["store.service.jobs"] == len(inputs.jobs)
    assert metrics["store.result_store.rows_recorded"] == metrics["store.result_store.rows_looked_up"]
    assert 0.99 < metrics["trace.accounted_ratio"] < 1.01


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
