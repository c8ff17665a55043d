#!/usr/bin/env python3
"""Measure engine/message/trial throughput and emit ``BENCH_engine.json``.

Usage::

    python scripts/bench_report.py [--quick] [--output BENCH_engine.json]
                                   [--workers N]

Eight measurements, all derived from the workloads the experiments actually
run:

``engine``
    Events/sec of a self-scheduling callback chain on the optimized engine
    and on the seed engine replica (``benchmarks/legacy_engine.py``), plus
    the resulting speedup.
``message_path``
    Messages/sec of a relay workload on the real network stack (slotted
    envelopes, handle-free delivery scheduling, null tracer) vs the
    pre-optimization replica (``benchmarks/legacy_message_path.py``).
``election_core``
    Ticks/sec of tick-dominated elections on the live election core (plain
    integer counters, cached activation probability, allocation-free tick
    rescheduling, identity clock fast path) vs the pre-refactor replica
    (``benchmarks/legacy_election_core.py``), plus the opt-in ``batch_ticks``
    shared-round-driver mode.
``vector_core``
    Ticks/sec of the columnar numpy engine (``repro.core.vector_core``) vs
    the object core on its fast defaults, on the same tick-dominated
    workload (``benchmarks/bench_vector_core.py``; different deterministic
    random streams by design, so throughput -- not trajectories -- is
    compared).
``trials``
    Monte-Carlo election trials/sec serially and fanned across worker
    processes via :class:`repro.experiments.parallel.SweepPool`.
``experiments_e2e``
    Wall clock of a reduced E1+E3 experiment-suite run: the old defaults
    (per-node ticks, fixed trial counts) vs the shipped fast default plus
    adaptive Monte-Carlo stopping
    (``benchmarks/bench_experiments_e2e.py``, gated >= 2x there).
``sweep_pool``
    Wall clock of a multi-size election sweep forking a fresh pool per ring
    size vs reusing one :class:`repro.experiments.parallel.SweepPool`, with
    the bit-identity of the two result sets asserted.
``result_store``
    Per-trial journaling cost of the sqlite :class:`repro.store.ResultStore`:
    records/sec, lookups/sec, and the second-half/first-half cost ratio over
    the record stream -- ~1.0 means each append is O(1) in store size (the
    pre-store journal rewrote the whole file per record, so this ratio grew
    with N and total bytes were O(N^2)).

Every section also reports ``peak_mem_mb``: the tracemalloc peak of one
representative workload run.  Tracing slows Python severely, so memory is
always measured in a separate untimed pass, never inside a timed region;
sections that fan out to worker processes report the serial path's peak
(child allocations are invisible to the parent's tracemalloc).

``--quick`` shrinks every workload so the whole report takes a few seconds;
CI runs it on every PR to keep a perf artifact trail.  Numbers are
machine-dependent -- compare trajectories on the same hardware, not absolute
values across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

from legacy_engine import LegacySimulator  # noqa: E402

from repro.experiments.parallel import SweepPool  # noqa: E402
from repro.experiments.runner import trial_seeds  # noqa: E402
from repro.experiments.workloads import ElectionTrial, election_trials  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

from bench_election_core import (  # noqa: E402
    A0 as ELECTION_CORE_A0,
    RING_SIZE as ELECTION_CORE_RING,
    legacy_ticks_per_second,
    live_ticks_per_second,
)
from bench_engine_microbench import events_per_second  # noqa: E402
from bench_experiments_e2e import measure as measure_experiments_e2e  # noqa: E402
from bench_message_path import (  # noqa: E402
    legacy_messages_per_second,
    optimized_messages_per_second,
)
from bench_vector_core import (  # noqa: E402
    object_ticks_per_second,
    vector_ticks_per_second,
)


def peak_memory_mb(fn) -> float:
    """Tracemalloc peak (MB) of one run of ``fn``, measured untimed.

    Tracing multiplies the cost of every allocation, so this must never run
    inside a timed region -- each bench section does a dedicated memory pass.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return round(peak / (1024 * 1024), 3)


def bench_engine(n_events: int, repeats: int) -> dict:
    # Interleave the two engines so CPU frequency drift between measurement
    # phases hits both equally.
    optimized_runs = []
    legacy_runs = []
    for _ in range(repeats):
        optimized_runs.append(events_per_second(Simulator, n_events))
        legacy_runs.append(events_per_second(LegacySimulator, n_events))
    optimized = max(optimized_runs)
    legacy = max(legacy_runs)
    return {
        "events_per_sec": round(optimized),
        "seed_engine_events_per_sec": round(legacy),
        "speedup_vs_seed": round(optimized / legacy, 2),
        "chain_events": n_events,
        "peak_mem_mb": peak_memory_mb(
            lambda: events_per_second(Simulator, n_events)
        ),
    }


def bench_message_path(messages: int, repeats: int) -> dict:
    # Interleave the two paths so CPU frequency drift hits both equally.
    optimized_runs = []
    legacy_runs = []
    for _ in range(repeats):
        optimized_runs.append(optimized_messages_per_second(messages))
        legacy_runs.append(legacy_messages_per_second(messages))
    optimized = max(optimized_runs)
    legacy = max(legacy_runs)
    return {
        "messages_per_sec": round(optimized),
        "legacy_messages_per_sec": round(legacy),
        "speedup_vs_legacy": round(optimized / legacy, 2),
        "relay_messages": messages,
        "peak_mem_mb": peak_memory_mb(
            lambda: optimized_messages_per_second(messages)
        ),
    }


def bench_election_core(repeats: int) -> dict:
    # Interleave live / legacy / batched so CPU frequency drift hits all
    # three equally.  The workload (tick-dominated elections; see
    # benchmarks/bench_election_core.py) is identical across the three
    # modes, and live-vs-legacy bit-identity is asserted by the differential
    # tests before these numbers mean anything.
    live_runs = []
    legacy_runs = []
    batched_runs = []
    for _ in range(repeats):
        live_runs.append(live_ticks_per_second())
        legacy_runs.append(legacy_ticks_per_second())
        batched_runs.append(live_ticks_per_second(batch_ticks=True))
    live = max(live_runs)
    legacy = max(legacy_runs)
    batched = max(batched_runs)
    return {
        "ring_size": ELECTION_CORE_RING,
        "a0": ELECTION_CORE_A0,
        "ticks_per_sec": round(live),
        "legacy_ticks_per_sec": round(legacy),
        "speedup_vs_legacy": round(live / legacy, 2),
        "batch_ticks_per_sec": round(batched),
        "batch_ticks_speedup": round(batched / live, 2),
        "peak_mem_mb": peak_memory_mb(live_ticks_per_second),
    }


def bench_vector_core(repeats: int) -> dict:
    # Interleave vector / object so CPU frequency drift hits both equally.
    # Same workload as bench_election_core; the object side runs its fast
    # defaults, so the speedup measures the columnar engine against the best
    # object-core configuration (see benchmarks/bench_vector_core.py).
    vector_runs = []
    object_runs = []
    for _ in range(repeats):
        vector_runs.append(vector_ticks_per_second())
        object_runs.append(object_ticks_per_second())
    vector = max(vector_runs)
    obj = max(object_runs)
    return {
        "ring_size": ELECTION_CORE_RING,
        "a0": ELECTION_CORE_A0,
        "ticks_per_sec": round(vector),
        "object_ticks_per_sec": round(obj),
        "speedup_vs_object": round(vector / obj, 2),
        "peak_mem_mb": peak_memory_mb(vector_ticks_per_second),
        "object_peak_mem_mb": peak_memory_mb(object_ticks_per_second),
    }


def bench_trials(n: int, trials: int, workers: int) -> dict:
    run_one = ElectionTrial(n, 0.3, None, {})  # run_election's default channel
    seeds = trial_seeds(0, trials, label="bench-par")

    started = time.perf_counter()
    serial = [run_one(seed) for seed in seeds]
    serial_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    with SweepPool(workers) as pool:
        parallel = pool.map(run_one, seeds)
    parallel_elapsed = time.perf_counter() - started

    assert serial == parallel, "parallel trials diverged from serial results"
    return {
        "ring_size": n,
        "trials": trials,
        "workers": workers,
        "serial_trials_per_sec": round(trials / serial_elapsed, 2),
        "parallel_trials_per_sec": round(trials / parallel_elapsed, 2),
        "parallel_speedup": round(serial_elapsed / parallel_elapsed, 2),
        "results_bit_identical": True,
        # Serial path only: child-process allocations are invisible here.
        "peak_mem_mb": peak_memory_mb(
            lambda: [run_one(seed) for seed in seeds]
        ),
    }


def bench_sweep_pool(sizes: tuple, trials: int, workers: int) -> dict:
    # Per parameter point: the PR-1 behaviour, one fresh fork pool per size.
    started = time.perf_counter()
    per_point = {
        n: election_trials(n, trials, 0, workers=workers) for n in sizes
    }
    per_point_elapsed = time.perf_counter() - started

    # Shared: one SweepPool reused across every size of the sweep.
    started = time.perf_counter()
    with SweepPool(workers) as pool:
        shared = {n: election_trials(n, trials, 0, pool=pool) for n in sizes}
    shared_elapsed = time.perf_counter() - started

    assert per_point == shared, "shared-pool sweep diverged from per-point pools"
    total = trials * len(sizes)
    return {
        "sizes": list(sizes),
        "trials_per_size": trials,
        "workers": workers,
        "per_point_pool_trials_per_sec": round(total / per_point_elapsed, 2),
        "shared_pool_trials_per_sec": round(total / shared_elapsed, 2),
        "shared_pool_speedup": round(per_point_elapsed / shared_elapsed, 2),
        "results_bit_identical": True,
    }


def bench_result_store(records: int) -> dict:
    import shutil
    import tempfile

    from repro.network.delays import ExponentialDelay
    from repro.store import ResultStore

    # One representative election result is the payload for every record.
    payload = ElectionTrial(8, 0.3, ExponentialDelay(mean=1.0), {})(7)
    half = records // 2
    seeds = list(range(2 * half))
    tmp = tempfile.mkdtemp(prefix="bench_result_store_")
    section: dict = {"records": 2 * half}
    try:
        with ResultStore(os.path.join(tmp, "store.sqlite")) as store:
            started = time.perf_counter()
            for seed in seeds[:half]:
                store.record("bench", seed, payload)
            first_half = time.perf_counter() - started
            started = time.perf_counter()
            for seed in seeds[half:]:
                store.record("bench", seed, payload)
            second_half = time.perf_counter() - started
            started = time.perf_counter()
            cached = store.lookup("bench", seeds)
            lookup_elapsed = time.perf_counter() - started
            assert len(cached) == len(seeds)
            section["sqlite"] = {
                "records_per_sec": round(len(seeds) / (first_half + second_half)),
                "lookups_per_sec": round(len(seeds) / lookup_elapsed),
                # ~1.0 = O(1) appends; the pre-store whole-file-rewrite
                # journal trends toward 3.0 here and grows with N.
                "second_half_cost_ratio": round(second_half / first_half, 2),
                "bytes_per_record": round(store.bytes_written / len(seeds), 1),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return section


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="shrunken CI-sized run")
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_engine.json"), help="output path"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="workers for the trial benchmark (0 = one per CPU, min 4 for scaling data)",
    )
    args = parser.parse_args()

    if args.quick:
        chain_events, repeats = 30_000, 2
        relay_messages = 15_000
        trial_n, trial_count = 16, 12
        sweep_sizes, sweep_trials = (8, 16), 6
        store_records = 400
    else:
        chain_events, repeats = 150_000, 3
        relay_messages = 40_000
        trial_n, trial_count = 32, 48
        sweep_sizes, sweep_trials = (8, 16, 32), 16
        store_records = 2000
    workers = args.workers if args.workers > 0 else max(4, os.cpu_count() or 1)

    print("benchmarking engine ...", flush=True)
    engine = bench_engine(chain_events, repeats)
    print(
        f"  {engine['events_per_sec']:,} events/sec "
        f"({engine['speedup_vs_seed']}x vs seed engine)"
    )
    print("benchmarking message path ...", flush=True)
    message_path = bench_message_path(relay_messages, repeats)
    print(
        f"  {message_path['messages_per_sec']:,} messages/sec "
        f"({message_path['speedup_vs_legacy']}x vs legacy path)"
    )
    print("benchmarking election core ...", flush=True)
    election_core = bench_election_core(repeats)
    print(
        f"  {election_core['ticks_per_sec']:,} ticks/sec "
        f"({election_core['speedup_vs_legacy']}x vs legacy core, "
        f"batch_ticks {election_core['batch_ticks_speedup']}x)"
    )
    print("benchmarking vector core ...", flush=True)
    vector_core = bench_vector_core(repeats)
    print(
        f"  {vector_core['ticks_per_sec']:,} ticks/sec "
        f"({vector_core['speedup_vs_object']}x vs object core; peak "
        f"{vector_core['peak_mem_mb']} MB vs {vector_core['object_peak_mem_mb']} MB)"
    )
    print("benchmarking experiments end-to-end ...", flush=True)
    experiments_e2e = measure_experiments_e2e(quick=args.quick, repeats=repeats)
    print(
        f"  legacy {experiments_e2e['legacy_seconds']}s, fast "
        f"{experiments_e2e['fast_seconds']}s ({experiments_e2e['speedup']}x; "
        f"trials {experiments_e2e['legacy_trials_total']} -> "
        f"{experiments_e2e['fast_trials_total']})"
    )
    print(f"benchmarking trial fan-out (workers={workers}) ...", flush=True)
    trials = bench_trials(trial_n, trial_count, workers)
    print(
        f"  serial {trials['serial_trials_per_sec']}/s, "
        f"parallel {trials['parallel_trials_per_sec']}/s "
        f"({trials['parallel_speedup']}x)"
    )
    print(f"benchmarking sweep pool reuse (workers={workers}) ...", flush=True)
    sweep_pool = bench_sweep_pool(sweep_sizes, sweep_trials, workers)
    print(
        f"  per-point {sweep_pool['per_point_pool_trials_per_sec']}/s, "
        f"shared {sweep_pool['shared_pool_trials_per_sec']}/s "
        f"({sweep_pool['shared_pool_speedup']}x)"
    )
    print(f"benchmarking result store ({store_records} records) ...", flush=True)
    result_store = bench_result_store(store_records)
    numbers = result_store["sqlite"]
    print(
        f"  sqlite: {numbers['records_per_sec']:,} records/sec, "
        f"{numbers['lookups_per_sec']:,} lookups/sec, "
        f"2nd-half cost {numbers['second_half_cost_ratio']}x "
        f"({numbers['bytes_per_record']} bytes/record)"
    )

    report = {
        "generated_by": "scripts/bench_report.py",
        "quick": args.quick,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "engine": engine,
        "message_path": message_path,
        "election_core": election_core,
        "vector_core": vector_core,
        "experiments_e2e": experiments_e2e,
        "trials": trials,
        "sweep_pool": sweep_pool,
        "result_store": result_store,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
